//! Fast task switching substrate (Section 4 of the paper).
//!
//! PCIe transfers with pipelined layer-group plans, on top of which the
//! three switching protocols of Table 3 (Default, PipeSwitch, Hare) are
//! implemented as mechanistic cost models, including Hare's two novel
//! designs: early task cleaning (the successor's first layer group
//! preloads once the predecessor's backward pass has freed that much
//! memory) and speculative memory management (a GPU's cache keeps the
//! latest models resident, counted in bytes of its device memory, while
//! the next task still fits).

#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

pub mod cleaning;
pub mod speculative;
pub mod switching;
pub mod transfer;

pub use speculative::{plan_cache, CachePlan, SpeculativeCache, TaskModelRef};
pub use switching::{
    omega, switch_sequence, switch_time, PrevTask, SeqTask, SwitchBreakdown, SwitchPolicy,
    SwitchRequest,
};
pub use transfer::{full_transfer, pipeline, Pipeline};
