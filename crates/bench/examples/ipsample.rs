//! A sampling profiler for a box with no `perf`: runs a command under
//! `ptrace`, interrupts it every N µs and writes one line per sample — the
//! instruction pointer, then the return addresses up the frame-pointer
//! chain, in hex. The command must be built with frame pointers and at
//! fixed addresses; `crates/bench/README.md` ("Profiling without perf") has
//! the build line.
//!
//! ```text
//! cargo run --release -p bench --example ipsample -- <interval-us> <out> <command> [args...]
//! cargo run --release -p bench --example ipsample -- report <binary> <samples> [root] [top]
//! cargo run --release -p bench --example ipsample -- report <binary> <samples> callers <fn> [root]
//! ```
//!
//! Only the command's main thread is sampled, and a sample costs it a stop,
//! so shares are trustworthy and absolute times are not.
//!
//! `report` symbolises a sample file against the binary that produced it
//! (`nm -C -n`: each address belongs to the last symbol at or below it),
//! keeps the samples with a `root` frame on the stack (default
//! `run_until_events`: the loop, not set-up or the report), and prints the
//! `top` (default 25) functions by inclusive share — counted once per
//! sample — and by self share, the sampled instruction's function. A
//! function compiled more than once (one copy per monomorphisation, say)
//! prints as `name @0xaddr`, one row per copy. `callers <fn>` splits the
//! samples with `fn` on the stack by the nearest caller of `fn` that is not
//! library code (`core`, `alloc`, `std`, `hashbrown`, or outside the
//! binary).

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

    const USAGE: &str = "usage: ipsample <interval-us> <out> <command> [args...] \
                         | report <binary> <samples> [root] [top] \
                         | report <binary> <samples> callers <fn> [root]";

    pub fn main() -> Result<(), String> {
        let args: Vec<String> = std::env::args().skip(1).collect();
        if let [mode, rest @ ..] = args.as_slice() {
            if mode == "report" {
                return report::main(rest);
            }
        }
        let [interval_us, out, command, rest @ ..] = args.as_slice() else {
            return Err(USAGE.into());
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

    /// `ipsample report`: a sample file, symbolised and summed.
    mod report {
        use std::collections::HashMap;
        use std::process::Command;

        /// The binary's sized function symbols, ascending by address: start,
        /// end and name. (The unsized ones are a few start-up stubs.) A name
        /// several symbols share — one generic function's monomorphisations,
        /// or one function's copies in different crates — gets each copy's
        /// address appended, so their samples are not summed as one.
        fn symbols(binary: &str) -> Result<Vec<(u64, u64, String)>, String> {
            let nm = Command::new("nm").args(["-C", "-n", "-S", binary]).output();
            let nm = nm.map_err(|e| format!("nm: {e}"))?;
            if !nm.status.success() {
                let why = String::from_utf8_lossy(&nm.stderr);
                return Err(format!("nm {binary}: {}", why.trim()));
            }
            let hex = |field: &str| u64::from_str_radix(field, 16).ok();
            let mut symbols = Vec::new();
            for line in String::from_utf8_lossy(&nm.stdout).lines() {
                let mut fields = line.splitn(4, ' ');
                let (Some(start), Some(size)) = (fields.next(), fields.next()) else {
                    continue;
                };
                if let (Some(start), Some(size), Some("T" | "t" | "W" | "w"), Some(name)) =
                    (hex(start), hex(size), fields.next(), fields.next())
                {
                    symbols.push((start, start + size, without_hash(name).to_string()));
                }
            }
            let mut copies: HashMap<String, usize> = HashMap::new();
            for (_, _, name) in &symbols {
                *copies.entry(name.clone()).or_default() += 1;
            }
            for (start, _, name) in &mut symbols {
                if copies[name.as_str()] > 1 {
                    *name = format!("{name} @{start:#x}");
                }
            }
            Ok(symbols)
        }

        /// A Rust symbol without its `::h<16 hex digits>` suffix.
        fn without_hash(name: &str) -> &str {
            match name.rsplit_once("::h") {
                Some((head, hash))
                    if hash.len() == 16 && hash.bytes().all(|b| b.is_ascii_hexdigit()) =>
                {
                    head
                }
                _ => name,
            }
        }

        /// Whether a frame is library code rather than this workspace's.
        fn is_library(frame: &str) -> bool {
            let path = frame.trim_start_matches('<');
            ["core::", "alloc::", "std::", "hashbrown::", "[outside"]
                .iter()
                .any(|prefix| path.starts_with(prefix))
        }

        pub fn main(args: &[String]) -> Result<(), String> {
            let [binary, samples, rest @ ..] = args else {
                return Err(super::USAGE.into());
            };
            // `callers <fn> [root]`, or `[root] [top]`.
            let (callee, rest) = match rest {
                [mode, callee, rest @ ..] if mode == "callers" => (Some(callee.as_str()), rest),
                [mode] if mode == "callers" => return Err(super::USAGE.into()),
                _ => (None, rest),
            };
            let root = rest.first().map_or("run_until_events", String::as_str);
            let top = match callee {
                Some(_) => Ok(usize::MAX),
                None => rest.get(1).map_or(Ok(25), |n| n.parse::<usize>()),
            };
            let top = top.map_err(|e| format!("top: {e}"))?;
            let symbols = symbols(binary)?;
            // Past the end of the symbol below it: a shared library's code
            // (libc's `memcpy`, say), not the binary's.
            let name_of = |addr: u64| {
                let above = symbols.partition_point(|&(start, _, _)| start <= addr);
                match above.checked_sub(1).map(|i| &symbols[i]) {
                    Some((_, end, name)) if addr < *end => name.as_str(),
                    _ => "[outside the binary]",
                }
            };
            let samples =
                std::fs::read_to_string(samples).map_err(|e| format!("{samples}: {e}"))?;
            let (mut total, mut kept) = (0usize, 0usize);
            let mut inclusive: HashMap<&str, usize> = HashMap::new();
            let mut own: HashMap<&str, usize> = HashMap::new();
            let mut callers: HashMap<&str, usize> = HashMap::new();
            for line in samples.lines() {
                total += 1;
                // A return address is one past its call: step back into it.
                let hex = line.split_whitespace().enumerate();
                let mut frames: Vec<&str> = hex
                    .filter_map(|(depth, hex)| {
                        let addr = u64::from_str_radix(hex, 16).ok()?;
                        Some(name_of(addr.saturating_sub(u64::from(depth > 0))))
                    })
                    .collect();
                if !frames.iter().any(|frame| frame.contains(root)) {
                    continue;
                }
                kept += 1;
                if let Some(callee) = callee {
                    // The innermost frame of `callee`, then the first frame
                    // above it that is neither `callee` nor library code.
                    if let Some(at) = frames.iter().position(|f| f.contains(callee)) {
                        let caller = frames[at..]
                            .iter()
                            .find(|f| !f.contains(callee) && !is_library(f))
                            .copied()
                            .unwrap_or("[no caller in the binary]");
                        *callers.entry(caller).or_default() += 1;
                    }
                    continue;
                }
                *own.entry(frames[0]).or_default() += 1;
                frames.sort_unstable();
                frames.dedup();
                for frame in frames {
                    *inclusive.entry(frame).or_default() += 1;
                }
            }
            println!("{kept} of {total} samples have `{root}` on the stack");
            let tables = match callee {
                Some(callee) => {
                    let with: usize = callers.values().sum();
                    let percent = 100.0 * with as f64 / kept.max(1) as f64;
                    println!("{percent:.1} % have `{callee}` on the stack too, by caller:");
                    vec![("caller", &callers)]
                }
                None => vec![("inclusive", &inclusive), ("self", &own)],
            };
            for (share, counts) in tables {
                let mut rows: Vec<(&str, usize)> = counts.iter().map(|(&f, &n)| (f, n)).collect();
                rows.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
                println!("\n{share:>9}  function");
                for (function, n) in rows.into_iter().take(top) {
                    let percent = 100.0 * n as f64 / kept.max(1) as f64;
                    println!("{percent:>7.1} %  {function}");
                }
            }
            Ok(())
        }
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
