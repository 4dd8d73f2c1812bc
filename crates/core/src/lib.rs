//! FOSS: a self-learned doctor for query optimizers (ICDE 2024).
//!
//! The paper's primary contribution, reproduced end to end:
//!
//! * **Planner** — a PPO agent that repairs the expert optimizer's plan with
//!   `Swap(Tl, Tr)` / `Override(Oi, Opj)` actions over the incomplete plan,
//!   under validity masks and the post-swap heuristic restriction
//!   ([`actions`], [`agent`], [`episode`]);
//! * **Asymmetric advantage model (AAM)** — a transformer state network over
//!   encoded plans plus a position-aware difference head, trained with the
//!   asymmetric focal loss and label smoothing; serves as both the candidate
//!   selector and the simulated environment's reward model ([`encoding`],
//!   [`state_net`], [`aam`], [`selector`]);
//! * **Simulated learner** — the Dyna-style loop of Fig. 3: bootstrap real
//!   executions into an execution buffer, train the AAM, let the agent churn
//!   cheap simulated episodes, validate promising plans for real, retrain
//!   ([`execbuf`], [`envs`], [`trainer`]).
//!
//! The expert engine, executor and benchmark substrates live in sibling
//! crates; README's *Layout* section has the full inventory.

pub mod aam;
pub mod actions;
pub mod advantage;
pub mod agent;
pub mod config;
pub mod encoding;
pub mod envs;
pub mod episode;
pub mod execbuf;
pub mod selector;
pub mod snapshot;
pub mod state_net;
pub mod trainer;

pub use aam::AdvantageModel;
pub use actions::{Action, ActionSpace};
pub use advantage::AdvantageScale;
pub use agent::{FrozenPolicy, PlannerAgent};
pub use config::FossConfig;
pub use encoding::{EncodedPlan, PlanEncoder};
pub use envs::{RealEnv, RewardOracle, SimEnv};
pub use episode::{run_episode, run_episode_greedy, run_episode_predrawn, EpisodeResult};
pub use execbuf::{ExecutedPlan, ExecutionBuffer};
pub use selector::select_best;
pub use snapshot::{
    Decision, Inference, PlannerSnapshot, SnapshotCell, DEFAULT_MIN_CONFIDENCE, SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
};
pub use trainer::{Foss, PhaseTimes, TrainReport};
