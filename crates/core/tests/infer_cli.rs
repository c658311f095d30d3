//! `edgebench-cli infer` at a size it cannot allocate: a typed message
//! and a non-zero exit, never an allocator abort.

use std::process::Command;

#[test]
fn infer_at_an_unallocatable_batch_exits_with_a_typed_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_edgebench-cli"))
        .args(["infer", "--model", "cifarnet", "--batch", "100000000000"])
        .output()
        .expect("run edgebench-cli");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    // 1e11 images of 3×32×32 f32.
    assert!(
        stderr.contains("cannot allocate 1228800000000000 bytes for node input_0"),
        "stderr: {stderr}"
    );
}
