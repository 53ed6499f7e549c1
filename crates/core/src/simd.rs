//! SIMD scoring kernels for inference.
//!
//! The f32 lane abstraction and the shared row kernels live in
//! [`inbox_autodiff::simd`] (the tape's fused ops use them too); this
//! module re-exports them so the scoring path names one kernel module.

pub use inbox_autodiff::simd::{
    d_pb_bounds_parts, d_pb_box_parts, d_pb_row_interleaved, l1_row, pmax, pmin, relu0, F32x8,
};
