//! Instrumented synchronization primitives.
//!
//! Each type wraps real storage and delegates to plain OS primitives when the
//! calling code is not running under a `foss_check` schedule, so production
//! crates can be compiled against these shims unconditionally (the
//! `foss_common::sync` facade does exactly that under `model-check`): tests
//! that do not spin up a model keep their normal semantics.
//!
//! Under a schedule, mutual exclusion is enforced by the kernel's token —
//! only one model thread runs at a time — so data lives in an `UnsafeCell`
//! and every acquire/release/notify is a scheduling point.
//!
//! Primitives must be **created inside the checked closure**: a primitive
//! constructed outside a schedule stays in real mode forever (and a real
//! blocking wait on a model thread would stall the whole schedule).

use crate::runtime::{current, Runtime};
use std::cell::UnsafeCell;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;
use std::time::Duration;

/// Handle tying an instrumented object to the schedule it was created under.
struct ModelRef {
    rt: Arc<Runtime>,
    id: usize,
}

fn me() -> usize {
    current().map(|(_, tid)| tid).unwrap_or(usize::MAX)
}

// ---------------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------------

pub struct Mutex<T> {
    model: Option<ModelRef>,
    /// Real-mode exclusivity; the payload always lives in `cell`.
    real: std::sync::Mutex<()>,
    cell: UnsafeCell<T>,
}

// SAFETY: exclusivity is provided either by `real` (real mode) or by the
// kernel's single-token execution (model mode).
unsafe impl<T: Send> Send for Mutex<T> {}
// SAFETY: as for `Send`: one guard at a time reaches the payload.
unsafe impl<T: Send> Sync for Mutex<T> {}

pub struct MutexGuard<'a, T> {
    lock: &'a Mutex<T>,
    real: Option<std::sync::MutexGuard<'a, ()>>,
    /// True for guards fabricated while unwinding an aborted schedule; they
    /// skip all bookkeeping on drop.
    bypass: bool,
}

impl<T> Mutex<T> {
    pub fn new(value: T) -> Self {
        let model = current().map(|(rt, _)| {
            let id = rt.register_mutex();
            ModelRef { rt, id }
        });
        Mutex {
            model,
            real: std::sync::Mutex::new(()),
            cell: UnsafeCell::new(value),
        }
    }

    fn model(&self) -> Option<&ModelRef> {
        // Only treat the object as instrumented from model threads; a guard
        // taken on an outside thread would confuse the kernel bookkeeping.
        match &self.model {
            Some(m) if crate::runtime::model_active() => Some(m),
            _ => None,
        }
    }

    pub fn lock(&self) -> MutexGuard<'_, T> {
        match self.model() {
            Some(m) => {
                if std::thread::panicking() {
                    return MutexGuard {
                        lock: self,
                        real: None,
                        bypass: true,
                    };
                }
                m.rt.mutex_lock(me(), m.id);
                MutexGuard {
                    lock: self,
                    real: None,
                    bypass: false,
                }
            }
            None => {
                let g = self.real.lock().unwrap_or_else(|e| e.into_inner());
                MutexGuard {
                    lock: self,
                    real: Some(g),
                    bypass: false,
                }
            }
        }
    }

    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.model() {
            Some(m) => {
                if std::thread::panicking() {
                    return Some(MutexGuard {
                        lock: self,
                        real: None,
                        bypass: true,
                    });
                }
                if m.rt.mutex_try_lock(me(), m.id) {
                    Some(MutexGuard {
                        lock: self,
                        real: None,
                        bypass: false,
                    })
                } else {
                    None
                }
            }
            None => match self.real.try_lock() {
                Ok(g) => Some(MutexGuard {
                    lock: self,
                    real: Some(g),
                    bypass: false,
                }),
                Err(std::sync::TryLockError::Poisoned(e)) => Some(MutexGuard {
                    lock: self,
                    real: Some(e.into_inner()),
                    bypass: false,
                }),
                Err(std::sync::TryLockError::WouldBlock) => None,
            },
        }
    }

    pub fn into_inner(self) -> T {
        self.cell.into_inner()
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.cell.get_mut()
    }
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: the guard holds the lock (a bypass guard exists only while
        // an aborted schedule unwinds, when no other thread runs).
        unsafe { &*self.lock.cell.get() }
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as in `deref`; `&mut self` makes this the only borrow.
        unsafe { &mut *self.lock.cell.get() }
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        if self.real.is_none() && !self.bypass {
            if let Some(m) = &self.lock.model {
                m.rt.mutex_unlock(me(), m.id);
            }
        }
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

// Opaque on purpose: peeking at the payload would mean taking the lock, and
// a lock acquire is a scheduling point — formatting must not perturb the
// schedule under exploration.
impl<T> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad("Mutex { .. }")
    }
}

// ---------------------------------------------------------------------------
// RwLock
// ---------------------------------------------------------------------------

pub struct RwLock<T> {
    model: Option<ModelRef>,
    real: std::sync::RwLock<()>,
    cell: UnsafeCell<T>,
}

// SAFETY: as for `Mutex`, with `real` or the kernel admitting either one
// writer or any number of readers.
unsafe impl<T: Send> Send for RwLock<T> {}
// SAFETY: readers share `&T` across threads, hence `T: Sync`.
unsafe impl<T: Send + Sync> Sync for RwLock<T> {}

pub struct RwLockReadGuard<'a, T> {
    lock: &'a RwLock<T>,
    real: Option<std::sync::RwLockReadGuard<'a, ()>>,
    bypass: bool,
}

pub struct RwLockWriteGuard<'a, T> {
    lock: &'a RwLock<T>,
    real: Option<std::sync::RwLockWriteGuard<'a, ()>>,
    bypass: bool,
}

impl<T> RwLock<T> {
    pub fn new(value: T) -> Self {
        let model = current().map(|(rt, _)| {
            let id = rt.register_rwlock();
            ModelRef { rt, id }
        });
        RwLock {
            model,
            real: std::sync::RwLock::new(()),
            cell: UnsafeCell::new(value),
        }
    }

    fn model(&self) -> Option<&ModelRef> {
        match &self.model {
            Some(m) if crate::runtime::model_active() => Some(m),
            _ => None,
        }
    }

    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        match self.model() {
            Some(m) => {
                if std::thread::panicking() {
                    return RwLockReadGuard {
                        lock: self,
                        real: None,
                        bypass: true,
                    };
                }
                m.rt.rw_read(me(), m.id);
                RwLockReadGuard {
                    lock: self,
                    real: None,
                    bypass: false,
                }
            }
            None => {
                let g = self.real.read().unwrap_or_else(|e| e.into_inner());
                RwLockReadGuard {
                    lock: self,
                    real: Some(g),
                    bypass: false,
                }
            }
        }
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        match self.model() {
            Some(m) => {
                if std::thread::panicking() {
                    return RwLockWriteGuard {
                        lock: self,
                        real: None,
                        bypass: true,
                    };
                }
                m.rt.rw_write(me(), m.id);
                RwLockWriteGuard {
                    lock: self,
                    real: None,
                    bypass: false,
                }
            }
            None => {
                let g = self.real.write().unwrap_or_else(|e| e.into_inner());
                RwLockWriteGuard {
                    lock: self,
                    real: Some(g),
                    bypass: false,
                }
            }
        }
    }

    pub fn into_inner(self) -> T {
        self.cell.into_inner()
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.cell.get_mut()
    }
}

impl<T> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: the guard holds a read lock, so no writer is live (a bypass
        // guard exists only while an aborted schedule unwinds).
        unsafe { &*self.lock.cell.get() }
    }
}

impl<T> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        if self.real.is_none() && !self.bypass {
            if let Some(m) = &self.lock.model {
                m.rt.rw_read_unlock(me(), m.id);
            }
        }
    }
}

impl<T> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: the guard holds the write lock (a bypass guard exists only
        // while an aborted schedule unwinds).
        unsafe { &*self.lock.cell.get() }
    }
}

impl<T> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as in `deref`; `&mut self` makes this the only borrow.
        unsafe { &mut *self.lock.cell.get() }
    }
}

impl<T> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        if self.real.is_none() && !self.bypass {
            if let Some(m) = &self.lock.model {
                m.rt.rw_write_unlock(me(), m.id);
            }
        }
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T> std::fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad("RwLock { .. }")
    }
}

// ---------------------------------------------------------------------------
// Condvar
// ---------------------------------------------------------------------------

pub struct Condvar {
    model_id: Option<usize>,
    model_rt: Option<Arc<Runtime>>,
    real: std::sync::Condvar,
}

impl Default for Condvar {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Condvar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad("Condvar { .. }")
    }
}

impl Condvar {
    pub fn new() -> Self {
        match current() {
            Some((rt, _)) => {
                let id = rt.register_condvar();
                Condvar {
                    model_id: Some(id),
                    model_rt: Some(rt),
                    real: std::sync::Condvar::new(),
                }
            }
            None => Condvar {
                model_id: None,
                model_rt: None,
                real: std::sync::Condvar::new(),
            },
        }
    }

    fn model(&self) -> Option<(&Arc<Runtime>, usize)> {
        match (&self.model_rt, self.model_id) {
            (Some(rt), Some(id)) if crate::runtime::model_active() => Some((rt, id)),
            _ => None,
        }
    }

    /// Block until notified. Returns the (reacquired) guard.
    pub fn wait<'a, T>(&self, mut guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        match self.model() {
            Some((rt, cid)) => {
                if std::thread::panicking() || guard.bypass {
                    return guard;
                }
                let mid = guard
                    .lock
                    .model
                    .as_ref()
                    .map(|m| m.id)
                    .expect("model condvar used with a non-model mutex");
                rt.condvar_wait(me(), cid, mid, false);
                guard
            }
            None => {
                let real = guard
                    .real
                    .take()
                    .expect("real condvar used with a model mutex");
                let real = self.real.wait(real).unwrap_or_else(|e| e.into_inner());
                guard.real = Some(real);
                guard
            }
        }
    }

    /// Block until notified or the timeout elapses. Returns the guard and
    /// whether the wait timed out. Under a schedule the duration is abstract:
    /// the timeout can fire at any scheduling point.
    pub fn wait_timeout<'a, T>(
        &self,
        mut guard: MutexGuard<'a, T>,
        dur: Duration,
    ) -> (MutexGuard<'a, T>, bool) {
        match self.model() {
            Some((rt, cid)) => {
                if std::thread::panicking() || guard.bypass {
                    return (guard, false);
                }
                let mid = guard
                    .lock
                    .model
                    .as_ref()
                    .map(|m| m.id)
                    .expect("model condvar used with a non-model mutex");
                let timed_out = rt.condvar_wait(me(), cid, mid, true);
                (guard, timed_out)
            }
            None => {
                let real = guard
                    .real
                    .take()
                    .expect("real condvar used with a model mutex");
                let (real, to) = self
                    .real
                    .wait_timeout(real, dur)
                    .unwrap_or_else(|e| e.into_inner());
                guard.real = Some(real);
                (guard, to.timed_out())
            }
        }
    }

    pub fn notify_one(&self) {
        match self.model() {
            Some((rt, cid)) => {
                if !std::thread::panicking() {
                    rt.condvar_notify(me(), cid, false);
                }
            }
            None => self.real.notify_one(),
        }
    }

    pub fn notify_all(&self) {
        match self.model() {
            Some((rt, cid)) => {
                if !std::thread::panicking() {
                    rt.condvar_notify(me(), cid, true);
                }
            }
            None => self.real.notify_all(),
        }
    }
}

// ---------------------------------------------------------------------------
// Atomics
// ---------------------------------------------------------------------------

/// Instrumented atomics. Execution under a schedule is serialized, so every
/// operation is sequentially consistent regardless of the requested ordering;
/// the value of instrumentation is the scheduling point before each access.
/// Constructors are `const`, so these are drop-in for `static`s too
/// (statics simply never enter model mode).
pub mod atomic {
    pub use std::sync::atomic::Ordering;

    fn hook(label: &'static str) {
        if std::thread::panicking() {
            return;
        }
        if let Some((rt, me)) = crate::runtime::current() {
            rt.schedule_point(me, label);
        }
    }

    macro_rules! instrumented_atomic {
        ($name:ident, $std:ident, $ty:ty) => {
            #[derive(Debug, Default)]
            pub struct $name {
                inner: std::sync::atomic::$std,
            }

            impl $name {
                pub const fn new(v: $ty) -> Self {
                    Self {
                        inner: std::sync::atomic::$std::new(v),
                    }
                }

                pub fn load(&self, order: Ordering) -> $ty {
                    hook(concat!(stringify!($name), "::load"));
                    self.inner.load(order)
                }

                pub fn store(&self, v: $ty, order: Ordering) {
                    hook(concat!(stringify!($name), "::store"));
                    self.inner.store(v, order)
                }

                pub fn swap(&self, v: $ty, order: Ordering) -> $ty {
                    hook(concat!(stringify!($name), "::swap"));
                    self.inner.swap(v, order)
                }

                pub fn compare_exchange(
                    &self,
                    cur: $ty,
                    new: $ty,
                    ok: Ordering,
                    err: Ordering,
                ) -> Result<$ty, $ty> {
                    hook(concat!(stringify!($name), "::compare_exchange"));
                    self.inner.compare_exchange(cur, new, ok, err)
                }

                pub fn into_inner(self) -> $ty {
                    self.inner.into_inner()
                }
            }
        };
    }

    instrumented_atomic!(AtomicBool, AtomicBool, bool);
    instrumented_atomic!(AtomicU64, AtomicU64, u64);
    instrumented_atomic!(AtomicUsize, AtomicUsize, usize);

    macro_rules! instrumented_arith {
        ($name:ident, $ty:ty) => {
            impl $name {
                pub fn fetch_add(&self, v: $ty, order: Ordering) -> $ty {
                    hook(concat!(stringify!($name), "::fetch_add"));
                    self.inner.fetch_add(v, order)
                }

                pub fn fetch_sub(&self, v: $ty, order: Ordering) -> $ty {
                    hook(concat!(stringify!($name), "::fetch_sub"));
                    self.inner.fetch_sub(v, order)
                }

                pub fn fetch_max(&self, v: $ty, order: Ordering) -> $ty {
                    hook(concat!(stringify!($name), "::fetch_max"));
                    self.inner.fetch_max(v, order)
                }

                pub fn fetch_min(&self, v: $ty, order: Ordering) -> $ty {
                    hook(concat!(stringify!($name), "::fetch_min"));
                    self.inner.fetch_min(v, order)
                }

                pub fn fetch_update<F>(
                    &self,
                    set_order: Ordering,
                    fetch_order: Ordering,
                    f: F,
                ) -> Result<$ty, $ty>
                where
                    F: FnMut($ty) -> Option<$ty>,
                {
                    hook(concat!(stringify!($name), "::fetch_update"));
                    self.inner.fetch_update(set_order, fetch_order, f)
                }
            }
        };
    }

    instrumented_arith!(AtomicU64, u64);
    instrumented_arith!(AtomicUsize, usize);
}
