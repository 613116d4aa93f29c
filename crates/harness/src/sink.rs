//! Structured result sink: one CSV file per result under
//! `<out>/<experiment>/`, and the one identity every resume decision uses.
//!
//! A result is named by its **content key**: a stable FNV-1a-128 hash of
//! what determines the statistics — the program (its MiniC source text and
//! register-promotion flag), the canonical machine config
//! ([`svf_configspace::to_toml`]), the sampling plan (or `full`), and
//! [`SIM_VERSION`]. Labels, job ids and experiment order are presentation
//! only, so a relabelled or reordered run resumes every machine's own
//! result, while an edited config, a different sampling plan or a
//! simulator change re-simulates. A job whose result file exists and
//! parses is not re-simulated — this is the only resume mechanism, sweeps
//! included. Deleting the experiment's directory (or a single file) forces
//! a rerun. Files are written via a temp-file rename so a killed run never
//! leaves a truncated file that would later resume as a bogus result. The
//! lockstep quarantine keys on the same hash.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use svf_cpu::{SampleSpec, SimStats};

use crate::error::JobError;
use crate::job::Job;

/// The simulator's result version, hashed into every content key. Bump it
/// with any change that moves a simulated statistic (the golden rows in
/// `tests/golden_stats.rs` pin this pairing), so results stored by the
/// older simulator re-simulate instead of resuming.
pub const SIM_VERSION: u32 = 1;

/// The content key of `job`'s result under the sampling plan `sample`
/// (`None` = full simulation). See the module docs for what it covers.
pub(crate) fn content_key(job: &Job, sample: Option<&SampleSpec>) -> u128 {
    key_at_version(job, sample, SIM_VERSION)
}

/// FNV-1a-128 (stable across Rust releases and platforms, unlike `std`'s
/// `DefaultHasher`) over length-prefixed fields, so field boundaries are
/// part of the key.
fn key_at_version(job: &Job, sample: Option<&SampleSpec>, version: u32) -> u128 {
    let mut hash: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    let mut field = |bytes: &[u8]| {
        for &b in (bytes.len() as u64).to_le_bytes().iter().chain(bytes) {
            hash = (hash ^ u128::from(b)).wrapping_mul(0x0000_0000_0100_0000_0000_0000_0000_013b);
        }
    };
    field(&version.to_le_bytes());
    match job.program.minic() {
        Ok((source, regalloc)) => {
            field(source.as_bytes());
            field(&[u8::from(regalloc)]);
        }
        // Never stored (the job cannot compile), but still a stable key.
        Err(e) => {
            field(b"unresolved");
            field(e.as_bytes());
        }
    }
    field(svf_configspace::to_toml(&job.config).as_bytes());
    field(sample.map_or_else(|| "full".to_string(), ToString::to_string).as_bytes());
    hash
}

/// Writes `contents` to `path` via a same-directory temp file and an
/// atomic rename, so readers (and resumed runs) never observe a partially
/// written file — a kill at any instant leaves either the old file or the
/// new one, never a truncation. Each write gets its own temp name (process
/// id plus a process-wide counter), so concurrent writers of one path
/// never publish each other's half-written file.
///
/// # Errors
///
/// Propagates filesystem errors; the temp file is removed on failure.
pub fn atomic_write(path: &Path, contents: &str) -> io::Result<()> {
    static WRITES: AtomicU64 = AtomicU64::new(0);
    let mut ext = path.extension().unwrap_or_default().to_os_string();
    let n = WRITES.fetch_add(1, Ordering::Relaxed);
    ext.push(format!(".{}-{n}.tmp", std::process::id()));
    let tmp = path.with_extension(ext);
    fs::write(&tmp, contents)
        .and_then(|()| fs::rename(&tmp, path))
        .inspect_err(|_| {
            fs::remove_file(&tmp).ok();
        })
}

/// The per-experiment result directory. Files are named by content key;
/// the sampling plan that key covers is the directory's own state (set by
/// the harness), so lookups take only the [`Job`].
#[derive(Debug, Clone)]
pub struct RunDir {
    dir: PathBuf,
    sample: Option<SampleSpec>,
}

impl RunDir {
    /// Opens (creating if needed) `<root>/<experiment-name>/`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn create(root: &Path, experiment: &str) -> io::Result<RunDir> {
        let dir = root.join(experiment);
        fs::create_dir_all(&dir)?;
        Ok(RunDir { dir, sample: None })
    }

    /// Keys this directory's results under the sampling plan `sample`
    /// (`None` = full simulation).
    pub(crate) fn with_sample(mut self, sample: Option<SampleSpec>) -> RunDir {
        self.sample = sample;
        self
    }

    /// The directory results live in.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// The result file for one job: `<content key>.csv`.
    #[must_use]
    pub fn job_path(&self, job: &Job) -> PathBuf {
        self.dir.join(format!("{:032x}.csv", content_key(job, self.sample.as_ref())))
    }

    /// Loads a previously stored result, if one exists and is intact.
    /// Header mismatches (schema drift) and parse failures are treated as
    /// "no result" so the job transparently re-runs.
    #[must_use]
    pub fn load(&self, job: &Job) -> Option<SimStats> {
        self.load_classified(job).ok().flatten()
    }

    /// [`RunDir::load`] with the failure modes kept apart: `Ok(None)` means
    /// no result file exists (fresh job), `Err(CorruptResume)` means a file
    /// exists but is damaged or stale (the runner logs it, then re-runs the
    /// job — which repairs the file).
    ///
    /// # Errors
    ///
    /// [`JobError::CorruptResume`] naming the file and what was wrong.
    pub fn load_classified(&self, job: &Job) -> Result<Option<SimStats>, JobError> {
        let path = self.job_path(job);
        let text = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => {
                return Err(JobError::CorruptResume(format!("{}: {e}", path.display())))
            }
        };
        let corrupt = |what: &str| {
            JobError::CorruptResume(format!("{}: {what}", path.display()))
        };
        let mut lines = text.lines();
        match lines.next() {
            Some(h) if h == SimStats::csv_header() => {}
            _ => return Err(corrupt("header mismatch (schema drift or truncation)")),
        }
        let row = lines.next().ok_or_else(|| corrupt("missing data row"))?;
        SimStats::from_csv_row(row)
            .map(Some)
            .map_err(|e| corrupt(&format!("unparsable data row: {e}")))
    }

    /// Stores one job's result (header line + data row) atomically.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn store(&self, job: &Job, stats: &SimStats) -> io::Result<()> {
        atomic_write(
            &self.job_path(job),
            &format!("{}\n{}\n", SimStats::csv_header(), stats.to_csv_row()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::ProgramSpec;
    use svf_cpu::CpuConfig;
    use svf_workloads::Scale;

    fn tmp_root(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("svf-harness-sink-{tag}-{}", std::process::id()))
    }

    fn demo_job() -> Job {
        Job {
            id: 3,
            program: ProgramSpec::workload("gcc", Scale::Test),
            config_label: "base".to_string(),
            config: CpuConfig::wide4(),
        }
    }

    #[test]
    fn store_then_load_round_trips() {
        let root = tmp_root("roundtrip");
        let dir = RunDir::create(&root, "demo").expect("create");
        let job = demo_job();
        assert!(dir.load(&job).is_none(), "empty dir has no result");
        let stats = SimStats { cycles: 42, committed: 99, ..SimStats::default() };
        dir.store(&job, &stats).expect("store");
        let back = dir.load(&job).expect("load");
        assert_eq!(back, stats);
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn corrupt_or_stale_files_do_not_resume() {
        let root = tmp_root("corrupt");
        let dir = RunDir::create(&root, "demo").expect("create");
        let job = demo_job();
        fs::write(dir.job_path(&job), "garbage\n1,2,3\n").expect("write");
        assert!(dir.load(&job).is_none(), "wrong header must not resume");
        fs::write(dir.job_path(&job), format!("{}\nnot,numbers\n", SimStats::csv_header()))
            .expect("write");
        assert!(dir.load(&job).is_none(), "unparsable row must not resume");
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn classified_load_separates_fresh_from_corrupt() {
        let root = tmp_root("classified");
        let dir = RunDir::create(&root, "demo").expect("create");
        let job = demo_job();
        assert_eq!(dir.load_classified(&job), Ok(None), "no file is a fresh job");
        fs::write(dir.job_path(&job), "garbage\n").expect("write");
        let err = dir.load_classified(&job).expect_err("damaged file is classified");
        assert!(matches!(err, JobError::CorruptResume(_)), "{err:?}");
        assert!(err.to_string().contains("header mismatch"), "{err}");
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn exact_u64_counters_round_trip() {
        let root = tmp_root("u64");
        let dir = RunDir::create(&root, "demo").expect("create");
        let job = demo_job();
        let stats =
            SimStats { cycles: u64::MAX, committed: 123_456_789_012_345, ..SimStats::default() };
        dir.store(&job, &stats).expect("store");
        assert_eq!(dir.load(&job), Some(stats), "exact u64 round trip");
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn content_key_ignores_labels_and_covers_what_the_stats_depend_on() {
        let job = demo_job();
        let key = |j: &Job| content_key(j, None);
        let relabelled = Job { id: 9, config_label: "other".to_string(), ..demo_job() };
        assert_eq!(key(&relabelled), key(&job), "id and config label are presentation");
        let named = |label: &str, src: &str, regalloc: bool| Job {
            program: ProgramSpec::source_with(label, src, regalloc),
            ..demo_job()
        };
        let src = "int main() { return 0; }";
        assert_eq!(key(&named("a", src, true)), key(&named("b", src, true)), "source label");
        assert_ne!(key(&named("a", src, true)), key(&named("a", src, false)), "regalloc");
        assert_ne!(key(&named("a", src, true)), key(&named("a", "int main() { return 1; }", true)));
        let source = ProgramSpec::workload("gcc", Scale::Test).minic().expect("gcc").0.into_owned();
        assert_eq!(key(&named("x", &source, true)), key(&job), "a workload is its source text");
        let mut edited = demo_job();
        edited.config.ruu_size += 1;
        assert_ne!(key(&edited), key(&job), "config edit");
        let plan = SampleSpec::parse("period=10k,interval=2k,warmup=1k,ramp=500").expect("plan");
        assert_ne!(content_key(&job, Some(&plan)), key(&job), "sampled vs full");
    }

    #[test]
    fn sim_version_bump_re_simulates_every_stored_result() {
        let root = tmp_root("version");
        let dir = RunDir::create(&root, "demo").expect("create");
        let jobs = [demo_job(), Job { config: CpuConfig::wide8(), ..demo_job() }];
        for job in &jobs {
            dir.store(job, &SimStats { cycles: 7, ..SimStats::default() }).expect("store");
        }
        let file = |job: &Job, version: u32| {
            dir.path().join(format!("{:032x}.csv", key_at_version(job, None, version)))
        };
        for job in &jobs {
            assert_eq!(file(job, SIM_VERSION), dir.job_path(job), "today's key names the file");
            assert!(file(job, SIM_VERSION).exists());
            assert!(!file(job, SIM_VERSION + 1).exists(), "a bumped version resumes nothing");
        }
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn concurrent_atomic_writes_of_one_path_publish_a_whole_file() {
        let root = tmp_root("atomic-race");
        fs::create_dir_all(&root).expect("mkdir");
        let path = root.join("result.csv");
        let contents: Vec<String> =
            (0..8).map(|t| format!("{t}\n").repeat(20_000)).collect();
        let start = std::sync::Barrier::new(contents.len());
        std::thread::scope(|s| {
            for text in &contents {
                let (path, start) = (&path, &start);
                s.spawn(move || {
                    start.wait();
                    for _ in 0..8 {
                        atomic_write(path, text).expect("write");
                    }
                });
            }
        });
        let text = fs::read_to_string(&path).expect("read");
        assert!(contents.contains(&text), "the file is one writer's full contents");
        let names: Vec<_> = fs::read_dir(&root)
            .expect("readdir")
            .map(|e| e.expect("entry").file_name())
            .collect();
        assert_eq!(names, ["result.csv"], "temp files must not survive");
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn atomic_write_replaces_and_leaves_no_temp() {
        let root = tmp_root("atomic");
        fs::create_dir_all(&root).expect("mkdir");
        let path = root.join("points.csv");
        atomic_write(&path, "old\n").expect("write");
        atomic_write(&path, "new\n").expect("rewrite");
        assert_eq!(fs::read_to_string(&path).expect("read"), "new\n");
        let leftovers: Vec<_> = fs::read_dir(&root)
            .expect("readdir")
            .map(|e| e.expect("entry").file_name())
            .filter(|n| n.to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp files must not survive: {leftovers:?}");
        fs::remove_dir_all(&root).ok();
    }
}
