//! A sampling profiler for a box with no `perf`: runs a command under
//! `ptrace`, interrupts it every N µs and writes one line per sample — the
//! instruction pointer, then the return addresses up the frame-pointer
//! chain, in hex. The command must be built with frame pointers and at
//! fixed addresses; `crates/bench/README.md` ("Profiling without perf") has
//! the build line and how to symbolise the output.
//!
//! ```text
//! cargo run --release -p bench --example ipsample -- <interval-us> <out> <command> [args...]
//! ```
//!
//! Only the command's main thread is sampled, and a sample costs it a stop,
//! so shares are trustworthy and absolute times are not.

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sampler {
    use std::ffi::c_void;
    use std::io::{BufWriter, Write};
    use std::process::Command;
    use std::time::Duration;

    extern "C" {
        fn ptrace(request: i64, pid: i32, addr: *mut c_void, data: *mut c_void) -> i64;
        fn waitpid(pid: i32, status: *mut i32, options: i32) -> i32;
    }

    const PTRACE_PEEKDATA: i64 = 2;
    const PTRACE_CONT: i64 = 7;
    const PTRACE_GETREGS: i64 = 12;
    const PTRACE_SEIZE: i64 = 0x4206;
    const PTRACE_INTERRUPT: i64 = 0x4207;
    const PTRACE_EVENT_STOP: i32 = 128;
    /// The two words of `user_regs_struct` the walk needs.
    const RBP: usize = 4;
    const RIP: usize = 16;
    const MAX_FRAMES: usize = 24;

    /// A request whose `addr` and `data` the kernel reads as plain words —
    /// every one used here but GETREGS. An `addr` is the tracee's, not ours.
    fn request(request: i64, pid: i32, addr: u64, data: u64) -> i64 {
        assert_ne!(request, PTRACE_GETREGS, "GETREGS writes through `data`");
        // SAFETY: for these requests nothing in this process is read or
        // written through either argument.
        unsafe { ptrace(request, pid, addr as *mut c_void, data as *mut c_void) }
    }

    /// The stopped tracee's `user_regs_struct`, as its 27 words.
    fn registers(pid: i32) -> Option<[u64; 27]> {
        let mut regs = [0u64; 27];
        // SAFETY: GETREGS writes one `user_regs_struct` — 27 words on
        // x86-64 — through `data`, which points at a live buffer that size.
        let failed = unsafe {
            ptrace(
                PTRACE_GETREGS,
                pid,
                std::ptr::null_mut(),
                regs.as_mut_ptr().cast(),
            )
        };
        (failed == 0).then_some(regs)
    }

    /// Waits for the tracee's next stop: `Some(status)` if it stopped,
    /// `None` once it is gone.
    fn next_stop(pid: i32) -> Option<i32> {
        let mut status = 0;
        // SAFETY: `status` outlives the call.
        let reaped = unsafe { waitpid(pid, &mut status, 0) };
        (reaped == pid && status & 0xff == 0x7f).then_some(status)
    }

    /// One sample of a stopped tracee: `rip`, then the return address of
    /// every frame the `rbp` chain reaches.
    fn stack(pid: i32) -> Vec<u64> {
        let Some(regs) = registers(pid) else {
            return Vec::new();
        };
        let mut frames = vec![regs[RIP]];
        let mut frame = regs[RBP];
        while frames.len() < MAX_FRAMES && frame != 0 && frame % 8 == 0 {
            let caller = request(PTRACE_PEEKDATA, pid, frame, 0) as u64;
            let ret = request(PTRACE_PEEKDATA, pid, frame + 8, 0) as u64;
            // A failed peek reads as all ones; a chain that does not climb
            // is not a chain.
            if ret == u64::MAX || ret == 0 || caller <= frame {
                break;
            }
            frames.push(ret);
            frame = caller;
        }
        frames
    }

    pub fn main() -> Result<(), String> {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let [interval_us, out, command, rest @ ..] = args.as_slice() else {
            return Err("usage: ipsample <interval-us> <out> <command> [args...]".into());
        };
        let interval = Duration::from_micros(interval_us.parse().map_err(|e| format!("{e}"))?);
        let out = std::fs::File::create(out).map_err(|e| format!("{out}: {e}"))?;
        let mut out = BufWriter::new(out);
        let child = Command::new(command).args(rest).spawn();
        let pid = child.map_err(|e| format!("{command}: {e}"))?.id() as i32;
        // Seizing does not stop the tracee, and what it ran before this
        // line is a few samples' worth of start-up.
        if request(PTRACE_SEIZE, pid, 0, 0) != 0 {
            return Err("PTRACE_SEIZE failed (ptrace not permitted here?)".into());
        }
        let mut samples = 0u64;
        'run: loop {
            std::thread::sleep(interval);
            request(PTRACE_INTERRUPT, pid, 0, 0);
            loop {
                let Some(status) = next_stop(pid) else {
                    break 'run;
                };
                let signal = (status >> 8) & 0xff;
                if status >> 16 == PTRACE_EVENT_STOP {
                    let line: Vec<String> = stack(pid).iter().map(|a| format!("{a:x}")).collect();
                    writeln!(out, "{}", line.join(" ")).map_err(|e| e.to_string())?;
                    samples += 1;
                    request(PTRACE_CONT, pid, 0, 0);
                    break;
                }
                // A signal on its way to the tracee: hand it on, and keep
                // waiting for the interrupt's own stop.
                request(PTRACE_CONT, pid, 0, signal as u64);
            }
        }
        out.flush().map_err(|e| e.to_string())?;
        eprintln!("ipsample: {samples} samples");
        Ok(())
    }
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn main() {
    if let Err(message) = sampler::main() {
        eprintln!("ipsample: {message}");
        std::process::exit(2);
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn main() {}
