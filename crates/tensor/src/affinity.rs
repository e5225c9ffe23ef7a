//! Opt-in thread placement for the batch plan/execute overlap.
//!
//! The paper's ping-pong prefetch assumes the preprocessing unit and the
//! execution units are *distinct hardware*; the software analogue gets
//! closest when the batch planner thread (the one overlap thread, spawned
//! by `ConcurrentEngine::run_pipelined_threaded` in `tagnn-models`) and
//! the rayon compute workers sit on distinct cores instead of
//! time-slicing one. Pinning is strictly
//! opt-in via the `TAGNN_PIN_THREADS` environment variable (`1` or
//! `true`): on shared CI runners or oversubscribed hosts, pinning can
//! *hurt*, so the default is to leave placement to the scheduler.
//!
//! Implementation note: the workspace is dependency-free by policy (no
//! `libc`), so the Linux path issues the raw `sched_setaffinity`
//! syscall. Non-Linux (or non-x86_64) builds compile the same API as a
//! no-op that reports failure, which callers treat as "run unpinned".

/// Whether the user asked for thread pinning (`TAGNN_PIN_THREADS=1` or
/// `true`, case-insensitive). Read per call so tests can flip it.
pub fn pinning_enabled() -> bool {
    std::env::var("TAGNN_PIN_THREADS")
        .map(|v| {
            let v = v.trim().to_ascii_lowercase();
            v == "1" || v == "true"
        })
        .unwrap_or(false)
}

/// Pins the calling thread to logical CPU `core` (modulo the visible CPU
/// count is the caller's concern — an out-of-range core fails). Returns
/// `true` when the affinity mask was applied, `false` when pinning is
/// unsupported on this platform or the kernel rejected the mask; callers
/// must treat `false` as "keep running unpinned", never as an error.
pub fn pin_current_thread(core: usize) -> bool {
    pin_impl(core)
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn pin_impl(core: usize) -> bool {
    // cpu_set_t is 1024 bits = 16 u64 words on Linux.
    const WORDS: usize = 16;
    if core >= WORDS * 64 {
        return false;
    }
    let mut mask = [0u64; WORDS];
    mask[core / 64] = 1u64 << (core % 64);
    // sched_setaffinity(pid=0 /* self */, len, mask) — syscall 203 on
    // x86_64. Returns 0 on success, a negative errno on failure.
    let ret: i64;
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") 203i64 => ret,
            in("rdi") 0i64,
            in("rsi") (WORDS * 8) as i64,
            in("rdx") mask.as_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret == 0
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn pin_impl(_core: usize) -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_is_off_by_default() {
        // The test environment does not set TAGNN_PIN_THREADS; the flag
        // readers in bench/serve rely on this default.
        if std::env::var("TAGNN_PIN_THREADS").is_err() {
            assert!(!pinning_enabled());
        }
    }

    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    #[test]
    fn pin_to_core_zero_succeeds_on_linux() {
        // Core 0 exists on every machine; the syscall path must apply.
        assert!(pin_current_thread(0));
        // A core far past any real machine must be rejected, not UB.
        assert!(!pin_current_thread(16 * 64));
    }
}
