//! A figure binary whose reader stops early (`fig03_cycle_landscapes | head
//! -n 1`) must end quietly with status 0, not panic on the broken pipe.
//!
//! The binary's stdout is a pipe shrunk to one page, so its output (about
//! 12 KB of `--json` lines) cannot all be buffered: the binary is still
//! writing when the read end closes after the first line, whatever the
//! scheduling.

#![cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]

use std::ffi::c_int;
use std::fs::File;
use std::io::Read;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};
use std::process::{Command, Stdio};

extern "C" {
    fn pipe2(fds: *mut c_int, flags: c_int) -> c_int;
    fn fcntl(fd: c_int, cmd: c_int, ...) -> c_int;
}

const O_CLOEXEC: c_int = 0o2_000_000;
const F_SETPIPE_SZ: c_int = 1031;
const PAGE: c_int = 4096;

/// A pipe of one page, both ends close-on-exec (the child's stdout is a
/// `dup2` copy, so only the write end reaches it).
fn one_page_pipe() -> (File, OwnedFd) {
    let mut fds: [c_int; 2] = [-1; 2];
    // SAFETY: `fds` has room for the two descriptors `pipe2` writes.
    assert_eq!(unsafe { pipe2(fds.as_mut_ptr(), O_CLOEXEC) }, 0, "pipe2");
    // SAFETY: `pipe2` succeeded, so both descriptors are open and owned here.
    let (read, write) = unsafe { (OwnedFd::from_raw_fd(fds[0]), OwnedFd::from_raw_fd(fds[1])) };
    // SAFETY: `F_SETPIPE_SZ` takes one integer argument.
    let size = unsafe { fcntl(write.as_raw_fd(), F_SETPIPE_SZ, PAGE) };
    assert_eq!(size, PAGE, "F_SETPIPE_SZ");
    (File::from(read), write)
}

#[test]
fn a_reader_that_stops_after_one_line_ends_the_binary_quietly() {
    let (mut reader, writer) = one_page_pipe();
    let child = Command::new(env!("CARGO_BIN_EXE_fig03_cycle_landscapes"))
        .arg("--json")
        .stdout(writer)
        .stderr(Stdio::piped())
        .spawn()
        .expect("figure binary starts");
    let mut first_line = Vec::new();
    let mut byte = [0u8; 1];
    while reader.read(&mut byte).expect("read stdout") == 1 && byte[0] != b'\n' {
        first_line.push(byte[0]);
    }
    assert!(first_line.starts_with(b"{"), "first line is a JSON row");
    drop(reader);

    let output = child.wait_with_output().expect("figure binary exits");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert_eq!(output.status.code(), Some(0), "stderr: {stderr}");
}
