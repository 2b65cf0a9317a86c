//! The precompiled-prelude cache behind [`crate::difftest::compile`].
//!
//! Most of a vectorized unit's `cc` time is spent parsing the headers it
//! includes (`<immintrin.h>` alone is about half a second), and every
//! unit with the same flags includes the same ones. So the guarded
//! compile precompiles each unit's *prelude* once per flag set per host
//! and has `cc` load it with `-include`:
//!
//! * **Prelude.** The `#define` and `#include <…>` lines of the source's
//!   leading run of blank lines, comments and such directives. Comments
//!   are left out, so the per-kernel banner does not give every unit its
//!   own key.
//! * **Key.** An FNV-1a hash of the prelude, the complete flag list and
//!   the first line of `cc --version`. The cache lives in
//!   `temp_dir()/exo_pch/<key>/` as `prelude.h` and `prelude.h.gch`.
//! * **Build.** On first use the header is precompiled with `-x c-header`
//!   and exactly the compile's flags, under a `difftest:pch` span. Both
//!   files are written under a temporary name and renamed into place, so
//!   concurrent processes never see half a file. Threads of one process
//!   build a key once: the others wait for it.
//! * **Use.** The compile adds `-include <key>/prelude.h`. The source
//!   is unchanged; its own directives re-include guarded headers and
//!   repeat identical `#define`s, which are no-ops, so the binary is the
//!   one a plain compile produces.
//! * **Fallback.** When the cache cannot be used (no prelude, a `cc`
//!   that is not GCC, a failed build, an unreadable `.gch`), the compile
//!   runs exactly as without it and a `difftest:pch-fallback` trace event
//!   records why.

use exo_guard::{run_guarded, GuardConfig};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// What the cache knows about one key in this process.
enum State {
    /// Not yet looked for on disk.
    Unknown,
    /// `prelude.h` and its `.gch` are in place.
    Ready,
    /// The build failed; the payload says why. Not retried in this
    /// process.
    Failed(String),
}

/// One cache entry: the header to `-include` and its in-process state.
struct Entry {
    header: PathBuf,
    state: Mutex<State>,
}

/// The directive lines of `source`'s leading run of blank lines,
/// comments, `#define` and `#include <…>` lines, one per line. Empty when
/// that run holds no `#include`: there is nothing worth precompiling.
fn prelude(source: &str) -> String {
    let mut out = String::new();
    let mut in_comment = false;
    for line in source.lines() {
        let t = line.trim();
        if in_comment {
            if let Some(end) = t.find("*/") {
                if !t[end + 2..].trim().is_empty() {
                    break;
                }
                in_comment = false;
            }
            continue;
        }
        if t.is_empty() || t.starts_with("//") {
            continue;
        }
        if let Some(rest) = t.strip_prefix("/*") {
            match rest.find("*/") {
                Some(end) if rest[end + 2..].trim().is_empty() => {}
                Some(_) => break,
                None => in_comment = true,
            }
            continue;
        }
        let directive =
            t.starts_with("#define ") || (t.starts_with("#include <") && t.ends_with('>'));
        if !directive || t.ends_with('\\') {
            break;
        }
        out.push_str(t);
        out.push('\n');
    }
    if out.lines().any(|l| l.starts_with("#include")) {
        out
    } else {
        String::new()
    }
}

/// Stable FNV-1a over `parts`, each terminated by a zero byte.
fn fnv(parts: &[&str]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for &b in part.as_bytes().iter().chain(&[0]) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// The cache directory of `prelude` compiled with `flags` by the
/// compiler whose `--version` output is `version`.
fn key_dir(prelude: &str, flags: &[String], version: &str) -> PathBuf {
    let first_line = version.lines().next().unwrap_or("");
    let mut parts = vec![prelude, first_line];
    parts.extend(flags.iter().map(String::as_str));
    std::env::temp_dir()
        .join("exo_pch")
        .join(format!("{:016x}", fnv(&parts)))
}

/// The header to pass as `-include` for compiling `source` with `flags`
/// (the complete list), building its precompiled form on first use.
///
/// # Errors
/// Why the cache cannot serve this compile; the caller then compiles
/// without it.
pub(crate) fn header_for(source: &str, flags: &[String]) -> Result<PathBuf, String> {
    let version = crate::difftest::cc_version().ok_or("no `cc` on PATH")?;
    // Clang looks for `.gch` files too, but fails on one it cannot read
    // instead of falling back to the header text.
    if !version.contains("Free Software Foundation") || version.contains("clang") {
        return Err("`cc` is not GCC".to_string());
    }
    let prelude = prelude(source);
    if prelude.is_empty() {
        return Err("the source has no #include prelude".to_string());
    }
    let dir = key_dir(&prelude, flags, version);
    let entry = entry(&dir);
    let mut state = entry.state.lock().unwrap_or_else(|e| e.into_inner());
    let gch = gch_of(&entry.header);
    if matches!(*state, State::Ready) && !gch.exists() {
        // Removed behind our back (or invalidated): build it again.
        *state = State::Unknown;
    }
    if matches!(*state, State::Unknown) {
        *state = match build(&dir, &entry.header, &prelude, flags) {
            Ok(()) => State::Ready,
            Err(why) => State::Failed(why),
        };
    }
    match &*state {
        State::Failed(why) => Err(why.clone()),
        _ => Ok(entry.header.clone()),
    }
}

/// Removes the precompiled form of `header` after `cc` could not read
/// it; the next compile with its key builds it again.
pub(crate) fn invalidate(header: &Path) {
    let _ = std::fs::remove_file(gch_of(header));
}

/// Records why a compile ran without the cache.
pub(crate) fn fallback(why: &str) {
    exo_obs::event("difftest:pch-fallback", || why.to_string());
}

fn gch_of(header: &Path) -> PathBuf {
    let mut name = header.as_os_str().to_os_string();
    name.push(".gch");
    PathBuf::from(name)
}

/// The process-wide entry for `dir`, so concurrent callers share one
/// build.
fn entry(dir: &Path) -> Arc<Entry> {
    static ENTRIES: OnceLock<Mutex<BTreeMap<PathBuf, Arc<Entry>>>> = OnceLock::new();
    let mut entries = ENTRIES
        .get_or_init(Default::default)
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    entries
        .entry(dir.to_path_buf())
        .or_insert_with(|| {
            Arc::new(Entry {
                header: dir.join("prelude.h"),
                state: Mutex::new(State::Unknown),
            })
        })
        .clone()
}

/// A name for a temporary file next to `path`, unique across threads and
/// processes.
fn temp_name(path: &Path) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let mut name = path.as_os_str().to_os_string();
    name.push(format!(
        ".{}.{}.tmp",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    PathBuf::from(name)
}

/// Writes `bytes` to `path` through a temporary file and a rename.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), String> {
    let tmp = temp_name(path);
    let written = std::fs::write(&tmp, bytes).and_then(|()| std::fs::rename(&tmp, path));
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written.map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Makes sure `header` holds `prelude` and its `.gch` is in place,
/// reusing what an earlier process left in `dir`.
fn build(dir: &Path, header: &Path, prelude: &str, flags: &[String]) -> Result<(), String> {
    let gch = gch_of(header);
    let current = std::fs::read_to_string(header).is_ok_and(|h| h == prelude);
    if current && gch.exists() {
        return Ok(());
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    if !current {
        // A `.gch` is only valid for the header text it was built from.
        let _ = std::fs::remove_file(&gch);
        write_atomic(header, prelude.as_bytes())?;
    }
    let _span = exo_obs::span!("difftest:pch", "{}", flags.join(" "));
    let tmp = temp_name(&gch);
    let mut cmd = Command::new("cc");
    cmd.args(flags)
        .args(["-x", "c-header", "-o"])
        .arg(&tmp)
        .arg(header);
    let built = run_guarded(
        &mut cmd,
        &GuardConfig::with_timeout(Duration::from_secs(120)),
    )
    .map_err(|e| format!("cannot run cc: {e}"))
    .and_then(|out| {
        if out.success {
            Ok(())
        } else {
            Err(format!(
                "precompiling {} failed (exit {:?}):\n{}",
                header.display(),
                out.code,
                out.stderr_lossy()
            ))
        }
    })
    .and_then(|()| {
        std::fs::rename(&tmp, &gch).map_err(|e| format!("cannot write {}: {e}", gch.display()))
    });
    if built.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    built
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_prelude_is_the_leading_directives_without_comments() {
        let src = "/* Generated by exo-codegen.\n * kernel: sgemm_c0\n */\n\
                   #define _POSIX_C_SOURCE 199309L\n#include <math.h>\n\n\
                   // a line comment\n#include <immintrin.h>\n\
                   struct exo_win_1f32 { float *data; };\n#include <stdio.h>\n";
        assert_eq!(
            prelude(src),
            "#define _POSIX_C_SOURCE 199309L\n#include <math.h>\n#include <immintrin.h>\n"
        );
        // Banners that differ only in their comments share one prelude.
        let other = src.replace("sgemm_c0", "blur2d_c3");
        assert_eq!(prelude(&other), prelude(src));
        // No include: nothing to precompile. A quoted include ends the run.
        assert_eq!(prelude("#define X 1\nint x;\n"), "");
        assert_eq!(prelude("#include \"k.h\"\n#include <math.h>\n"), "");
        // Text after a comment on the same line ends the run.
        assert_eq!(prelude("/* a */ int x;\n#include <math.h>\n"), "");
    }

    #[test]
    fn the_key_covers_prelude_flags_and_compiler() {
        let flags = |f: &[&str]| f.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let base = key_dir("#include <math.h>\n", &flags(&["-O2"]), "cc 12\nmore");
        assert_eq!(
            base,
            key_dir("#include <math.h>\n", &flags(&["-O2"]), "cc 12\nother")
        );
        for other in [
            key_dir("#include <stdio.h>\n", &flags(&["-O2"]), "cc 12"),
            key_dir("#include <math.h>\n", &flags(&["-O2", "-mavx2"]), "cc 12"),
            key_dir("#include <math.h>\n", &flags(&["-O2"]), "cc 13"),
            // Field boundaries are kept: the flag does not run into the prelude.
            key_dir("#include <math.h>\n-O2", &[], "cc 12"),
        ] {
            assert_ne!(base, other);
        }
    }

    use crate::difftest::{cc_available, compile, emit_driver, synth_inputs};
    use crate::{emit_c, CodegenOptions};
    use exo_cursors::ProcHandle;
    use exo_interp::ProcRegistry;
    use exo_ir::DataType;
    use exo_lib::{apply_script, schedule_of_record};
    use exo_machine::MachineModel;

    fn cc_flags(extra: &[String]) -> Vec<String> {
        let mut flags: Vec<String> = ["-O2", "-Wall", "-Werror", "-std=c99"]
            .iter()
            .map(|f| f.to_string())
            .collect();
        flags.extend_from_slice(extra);
        flags
    }

    /// Compiles `source` through the cache, then again in the same
    /// directory with a plain `cc` call (no `-include`), and returns both
    /// outputs' bytes.
    fn cached_and_plain(source: &str, extra: &[String], tag: &str) -> (Vec<u8>, Vec<u8>) {
        let bin = compile(source, extra, tag).unwrap_or_else(|e| panic!("{tag}: {e}"));
        let dir = bin.parent().expect("temp dir").to_path_buf();
        let link = source.contains("int main(");
        let plain = dir.join("plain");
        let mut cmd = Command::new("cc");
        cmd.args(cc_flags(extra));
        if !link {
            cmd.arg("-c");
        }
        cmd.arg("-o").arg(&plain).arg(dir.join("kernel.c"));
        if link {
            cmd.arg("-lm");
        }
        let out = run_guarded(
            &mut cmd,
            &GuardConfig::with_timeout(Duration::from_secs(120)),
        )
        .expect("cc runs");
        assert!(out.success, "{tag}: {}", out.stderr_lossy());
        let got = (
            std::fs::read(&bin).expect("cached output"),
            std::fs::read(&plain).expect("plain output"),
        );
        let _ = std::fs::remove_dir_all(&dir);
        got
    }

    /// A flag that gives a test its own cache key, so it can build, break
    /// and remove its entry without touching the shared ones.
    fn private_flag(what: &str) -> String {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        format!("-DEXO_PCH_TEST_{what}_{}_{nanos}", std::process::id())
    }

    /// The cache directory `compile(source, extra, ..)` uses, removed
    /// when the guard drops (also when the test fails).
    struct KeyDir(PathBuf);

    impl KeyDir {
        fn of(source: &str, extra: &[String]) -> KeyDir {
            let version = crate::difftest::cc_version().expect("cc");
            KeyDir(key_dir(&prelude(source), &cc_flags(extra), version))
        }
    }

    impl Drop for KeyDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn uses_gcc() -> bool {
        if !cc_available() {
            eprintln!("skipping: no C compiler (`cc`) on PATH");
            return false;
        }
        if header_for("#include <stdint.h>\n", &cc_flags(&[])).is_err() {
            eprintln!("skipping: `cc` is not GCC, so compiles run without the cache");
            return false;
        }
        true
    }

    #[test]
    fn cached_and_plain_compiles_are_byte_identical() {
        if !uses_gcc() {
            return;
        }
        let machine = MachineModel::avx2();
        let registry: ProcRegistry = machine.instructions(DataType::F32).into_iter().collect();
        let base = exo_kernels::sgemm();
        let record = schedule_of_record("sgemm", &machine).expect("sgemm record");
        let scheduled = apply_script(&ProcHandle::new(base.clone()), &record, &machine)
            .expect("record replays")
            .proc()
            .clone();
        let native = emit_c(&scheduled, &registry, &CodegenOptions::native()).unwrap();
        assert!(native.code.contains("<immintrin.h>"), "a vectorized unit");
        let portable = emit_c(&base, &registry, &CodegenOptions::portable()).unwrap();
        let inputs = synth_inputs(&base, 1).unwrap();
        let driver = emit_driver(&portable, &base, &inputs);
        for (tag, source, flags) in [
            ("pch_native", &native.code, &native.cflags),
            ("pch_portable", &portable.code, &portable.cflags),
            ("pch_dump_driver", &driver, &portable.cflags),
        ] {
            assert!(
                header_for(source, &cc_flags(flags)).is_ok(),
                "{tag}: the cache serves this unit"
            );
            let (cached, plain) = cached_and_plain(source, flags, tag);
            assert!(cached == plain, "{tag}: the cached build differs");
        }
    }

    #[test]
    fn gcc_loads_the_precompiled_prelude() {
        if !uses_gcc() {
            return;
        }
        let source = "#include <stdint.h>\n#include <math.h>\nint64_t f(void) { return 1; }\n";
        let flags = cc_flags(&[]);
        let header = header_for(source, &flags).expect("cache entry");
        let dir = std::env::temp_dir().join(format!("exo_pch_h_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("k.c"), source).unwrap();
        let mut cmd = Command::new("cc");
        cmd.args(&flags)
            .arg("-H")
            .arg("-include")
            .arg(&header)
            .arg("-c")
            .arg("-o")
            .arg(dir.join("k.o"))
            .arg(dir.join("k.c"));
        let out = run_guarded(
            &mut cmd,
            &GuardConfig::with_timeout(Duration::from_secs(60)),
        )
        .expect("cc runs");
        let _ = std::fs::remove_dir_all(&dir);
        assert!(out.success, "{}", out.stderr_lossy());
        // `-H` marks a precompiled header it loaded with `!`.
        let want = format!("! {}", gch_of(&header).display());
        assert!(
            out.stderr_lossy().lines().any(|l| l == want),
            "no `{want}` in:\n{}",
            out.stderr_lossy()
        );
    }

    #[test]
    fn concurrent_compiles_build_the_pch_once() {
        if !uses_gcc() {
            return;
        }
        let flag = private_flag("once");
        let extra = vec![flag.clone()];
        let source = "#include <stdint.h>\nint main(void) { return (int)INT8_C(0); }\n";
        let _dir = KeyDir::of(source, &extra);
        let session = exo_obs::session();
        std::thread::scope(|s| {
            for t in 0..4 {
                let extra = &extra;
                s.spawn(move || {
                    let bin = compile(source, extra, &format!("pch_once_{t}")).expect("compiles");
                    let _ = std::fs::remove_dir_all(bin.parent().expect("temp dir"));
                });
            }
        });
        let trace = session.finish();
        let builds = trace
            .spans()
            .filter(|s| s.name == "difftest:pch")
            .filter(|s| s.attr.as_deref().is_some_and(|a| a.contains(&flag)))
            .count();
        assert_eq!(builds, 1);
    }

    #[test]
    fn a_truncated_gch_still_yields_a_correct_binary() {
        if !uses_gcc() {
            return;
        }
        let extra = vec![private_flag("trunc")];
        let source = "#include <stdio.h>\nint main(void) { printf(\"%d\\n\", 42); return 0; }\n";
        let dir = KeyDir::of(source, &extra);
        let gch = dir.0.join("prelude.h.gch");
        let bin = compile(source, &extra, "pch_trunc").expect("first compile");
        let _ = std::fs::remove_dir_all(bin.parent().expect("temp dir"));
        let full = std::fs::read(&gch).expect("the first compile built the pch");
        // The header survives, so gcc accepts the file and then fails
        // reading the rest.
        std::fs::write(&gch, &full[..full.len() / 2]).unwrap();
        let session = exo_obs::session();
        let (cached, plain) = cached_and_plain(source, &extra, "pch_trunc");
        let trace = session.finish();
        assert!(cached == plain, "the recovered build differs");
        assert!(
            trace.events().any(|e| e.name == "difftest:pch-fallback"
                && e.detail
                    .as_deref()
                    .is_some_and(|d| d.contains("precompiled"))),
            "the fallback is traced with its reason"
        );
        // The broken file was dropped, and the next compile rebuilds it.
        let bin = compile(source, &extra, "pch_trunc").expect("third compile");
        let _ = std::fs::remove_dir_all(bin.parent().expect("temp dir"));
        let rebuilt = std::fs::read(&gch).map_or(0, |g| g.len());
        assert!(rebuilt > full.len() / 2, "{rebuilt} bytes");
        // So does a compile after the whole entry was deleted.
        std::fs::remove_dir_all(&dir.0).unwrap();
        let bin = compile(source, &extra, "pch_trunc").expect("fourth compile");
        let _ = std::fs::remove_dir_all(bin.parent().expect("temp dir"));
        assert!(gch.exists(), "the entry is rebuilt");
    }
}
