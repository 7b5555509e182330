//! Run facts recorded beside every result, and the process's peak RSS.

use std::process::Command;

/// First line of a command's standard output, if it ran and succeeded.
fn first_line(program: &str, args: &[&str], ceiling: Option<&str>) -> Option<String> {
    let mut command = Command::new(program);
    command.args(args);
    if let Some(ceiling) = ceiling {
        command.env("GIT_CEILING_DIRECTORIES", ceiling);
    }
    let output = command.output().ok()?;
    let text = String::from_utf8(output.stdout).ok()?;
    output.status.success().then(|| text.lines().next().unwrap_or("").trim().to_string())
}

/// The `model name` of the first CPU in `/proc/cpuinfo`.
fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|line| line.starts_with("model name"))
        .and_then(|line| line.split_once(':'))
        .map(|(_, model)| model.trim().to_string())
}

/// The facts as one JSON object: CPU count and model, rustc version,
/// build profile, commit (of the working directory only, never a parent
/// repository) and seed.
pub fn collect(seed: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let cwd = std::env::current_dir().ok();
    let ceiling = cwd.as_deref().and_then(std::path::Path::parent).map(|p| p.display().to_string());
    let commit = first_line("git", &["rev-parse", "--short=12", "HEAD"], ceiling.as_deref());
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    let text = |value: Option<String>| dbt_json::escape(&value.unwrap_or_else(|| "unknown".into()));
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": \"{}\", \"rustc\": \"{}\", \"profile\": \"{profile}\", \
         \"commit\": \"{}\", \"seed\": {seed}}}",
        text(cpu_model()),
        text(first_line("rustc", &["--version"], None)),
        text(commit),
    )
}

/// Peak resident set size of this process (`VmHWM`) since the last
/// [`start_peak_window`], in MiB; 0 where `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Starts the window [`peak_rss_mib`] covers: hands heap freed by earlier
/// phases (reference computations, stopped set-ups) back to the OS, then
/// resets the kernel's high-water mark to the current RSS. Called once the
/// system under test is up, so the peak covers that system and not the
/// benchmark's own earlier work.
pub fn start_peak_window() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointers, may be called
        // from any thread at any time, and only returns free heap pages.
        unsafe {
            malloc_trim(0);
        }
    }
    // "5" resets this process's VmHWM (Linux 4.0+); without it the peak
    // covers the whole process.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Makes every thread allocate from glibc's one main heap arena. Call
/// before any thread starts. A workload that spawns a short-lived worker
/// per task needs it: a worker that starts before the previous one has
/// handed its arena back gets a fresh arena, which lifts the peak by
/// ~15 MiB in some runs and not in others.
pub fn single_heap_arena() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        /// glibc's `M_ARENA_MAX`.
        const M_ARENA_MAX: i32 = -8;
        // SAFETY: `mallopt` takes no pointers; it only sets a limit that
        // later arena creations read.
        unsafe {
            mallopt(M_ARENA_MAX, 1);
        }
    }
}
