//! Seeded robustness sweep over every text input the workspace reads
//! back: job specs, disk-cache entries, queue-journal lines, inject-journal
//! lines, run manifests, `RAR_CHAOS` plans and HTTP requests. Each good
//! document is truncated at every byte that loses content and has single
//! bits flipped at random positions. Readers must answer with an error or
//! a miss, never a panic. JSON readers must never accept a document that
//! is not valid JSON, and a truncated cache entry must miss, so the cell
//! is re-simulated instead of trusted. A damaged chaos plan may still
//! parse, but only to a schedule the fail-point fabric can run, and a
//! damaged request only to what its own head says.

use rar_chaos::{sites, ChaosPlan};
use rar_core::{FaultTarget, PlannedFault, Technique};
use rar_inject::{JournalRecord, Outcome};
use rar_isa::rng::XorShift64Star;
use rar_serve::http::{
    parse_request, Request, RequestError, MAX_BODY_BYTES, MAX_HEADER_BYTES, MAX_REQUEST_LINE,
};
use rar_serve::jobs::{field, u64_field};
use rar_serve::{JobQueue, JobSpec};
use rar_sim::dashboard::{check_manifests, render_dashboard};
use rar_sim::{DiskCache, SimConfig, Simulation};
use rar_telemetry::{validate_manifest, Counter, ManifestBuilder, MetricsRegistry};
use rar_trace::jsonv;
use std::path::PathBuf;

/// Random single-bit flips per document.
const FLIPS: usize = 400;

/// A unique scratch dir per test; removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("rar-fuzz-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One damaged copy of a good document.
struct Mutant {
    text: String,
    /// A strict prefix that lost non-whitespace content: no reader may
    /// accept it.
    truncated: bool,
    /// For a bit flip, the byte it changed, as (offset, before, after).
    flip: Option<(usize, u8, u8)>,
}

/// Every content-losing truncation of `good`, then [`FLIPS`] single-bit
/// flips chosen by a xorshift64* stream from `seed`. `good` is ASCII and
/// bit 7 is never flipped, so every mutant stays valid UTF-8.
fn mutants(good: &str, seed: u64) -> Vec<Mutant> {
    assert!(good.is_ascii());
    let content = good.trim_end().len();
    let mut out: Vec<Mutant> = (0..content)
        .map(|cut| Mutant {
            text: good[..cut].to_owned(),
            truncated: true,
            flip: None,
        })
        .collect();
    let mut rng = XorShift64Star::new(seed | 1);
    for _ in 0..FLIPS {
        let at = rng.below(good.len() as u64) as usize;
        let mut bytes = good.as_bytes().to_vec();
        let before = bytes[at];
        bytes[at] ^= 1 << rng.below(7);
        let after = bytes[at];
        out.push(Mutant {
            text: String::from_utf8(bytes).expect("ASCII stays UTF-8"),
            truncated: false,
            flip: Some((at, before, after)),
        });
    }
    out
}

/// A reader accepted `m`: that is only allowed for a flip that left the
/// document well-formed JSON.
fn assert_acceptable(m: &Mutant, what: &str) {
    assert!(!m.truncated, "{what} accepted a truncation: {:?}", m.text);
    assert!(
        jsonv::validate(&m.text).is_ok(),
        "{what} accepted invalid JSON: {:?}",
        m.text
    );
}

#[test]
fn job_specs_reject_damage_without_panicking() {
    let bodies = [
        "{\"kind\": \"sweep\", \"priority\": 5, \"workloads\": [\"mcf\", \"milc\"], \
         \"techniques\": [\"ooo\", \"rar\"], \"seeds\": [1, 2]}",
        "{\"kind\":\"inject\",\"priority\":-1,\"workload\":\"mcf\",\"samples\":50,\
         \"inject_seed\":7,\"instructions\":2000,\"warmup\":300,\"threads\":2}",
    ];
    for (seed, good) in (1..).zip(bodies) {
        JobSpec::parse(good).expect("good spec parses");
        for m in mutants(good, seed) {
            if JobSpec::parse(&m.text).is_ok() {
                assert_acceptable(&m, "JobSpec::parse");
            }
            if m.truncated {
                assert_eq!(field(&m.text, "kind"), None);
                assert_eq!(u64_field(&m.text, "priority"), Ok(None));
            }
        }
    }
}

#[test]
fn damaged_cache_entries_miss_and_are_resimulated() {
    let scratch = Scratch::new("cache");
    let cache = DiskCache::new(&scratch.0);
    let cfg = SimConfig::builder()
        .workload("mcf")
        .technique(Technique::Rar)
        .warmup(300)
        .instructions(2_000)
        .build();
    let fresh = Simulation::run(&cfg);
    cache.store(&cfg, &fresh).expect("store");
    let path = cache.entry_path(&cfg);
    let good = std::fs::read_to_string(&path).expect("entry");
    for m in mutants(&good, 3) {
        std::fs::write(&path, &m.text).expect("write mutant");
        let Some(hit) = cache.load(&cfg) else {
            continue;
        };
        assert_acceptable(&m, "DiskCache::load");
        // Without a checksum, a digit flipped into another digit is a
        // well-formed entry with a different count; every other flip that
        // still hits must decode to the original result.
        let digit_to_digit =
            matches!(m.flip, Some((_, b, a)) if b.is_ascii_digit() && a.is_ascii_digit());
        assert!(
            hit == fresh || digit_to_digit,
            "flip {:?} decoded to a different result",
            m.flip
        );
    }
}

#[test]
fn damaged_queue_journal_lines_are_refused_mid_file() {
    let scratch = Scratch::new("queue");
    let path = scratch.0.join("queue.jsonl");
    {
        let (queue, _) = JobQueue::open(Some(&path), 1, Counter::default()).expect("open");
        let spec = JobSpec::parse(
            "{\"kind\":\"sweep\",\"workloads\":[\"mcf\",\"milc\"],\"techniques\":[\"rar\"],\
             \"seeds\":[1,2]}",
        )
        .expect("spec");
        let id = queue.submit(spec).expect("submit").id;
        queue.record_terminal(id, rar_serve::JobPhase::Completed);
    }
    let journal = std::fs::read_to_string(&path).expect("journal");
    let (submitted, terminal) = journal.split_once('\n').expect("two lines");
    for m in mutants(submitted, 4) {
        // The damaged line is followed by a good one, so it is corruption,
        // not a torn tail.
        std::fs::write(&path, format!("{}\n{terminal}", m.text)).expect("write mutant");
        match JobQueue::open(Some(&path), 1, Counter::default()) {
            Ok(_) if m.text.trim().is_empty() => {}
            Ok(_) => assert_acceptable(&m, "JobQueue::open"),
            Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{e}"),
        }
    }
}

#[test]
fn damaged_inject_journal_lines_parse_to_none() {
    let good = JournalRecord {
        k: 41,
        fault: PlannedFault {
            cycle: 123_456,
            target: FaultTarget::ALL[3],
            entry: 17,
            bit: 42,
        },
        outcome: Outcome::Sdc,
    }
    .to_line();
    assert!(JournalRecord::parse_line(&good).is_some());
    for m in mutants(&good, 5) {
        if JournalRecord::parse_line(&m.text).is_some() {
            assert_acceptable(&m, "JournalRecord::parse_line");
        }
    }
}

#[test]
fn damaged_manifests_fail_validation_and_still_render() {
    let registry = MetricsRegistry::new();
    registry.counter("rar_sweep_cells_simulated_total").add(6);
    registry.gauge("rar_sweep_cache_hit_ratio").set(0.5);
    let mut builder = ManifestBuilder::new("rar-experiments", "0.1.0");
    builder
        .set_u64("threads", 2)
        .set_u64("cells_completed", 6)
        .set_u64("cells_simulated", 6)
        .set_f64("cache_hit_rate", 0.0)
        .set_f64("runs_per_second", 12.5)
        .set_f64("wall_seconds", 0.48)
        .set_str_array("workloads", vec!["mcf".to_owned(), "milc".to_owned()]);
    let good = builder.render(&registry);
    assert_eq!(validate_manifest(&good), Vec::<String>::new());
    for m in mutants(&good, 6) {
        let problems = validate_manifest(&m.text);
        if problems.is_empty() {
            assert_acceptable(&m, "validate_manifest");
        }
        let named = [("m.json".to_owned(), m.text.clone())];
        let html = render_dashboard(&named);
        assert!(html.ends_with("</body></html>\n"));
        let gate = check_manifests(&named, Some(0), Some(0.0));
        assert!(!m.truncated || !gate.is_empty(), "gate passed {:?}", m.text);
    }
}

#[test]
fn damaged_chaos_plans_parse_to_runnable_schedules_or_errors() {
    // Every registered site, in all three entry forms, with offsets below
    // and past their period (parsing reduces them modulo one_in).
    let mut good = " seed=1234567 ".to_owned();
    let mut expected = ChaosPlan::default().with_seed(1_234_567);
    for (i, site) in (0u64..).zip(sites::ALL) {
        let (one_in, offset) = (i + 1, 7 * i % (2 * i + 2));
        let (entry, one_in, offset) = match i % 3 {
            0 => (site.to_owned(), 1, 0),
            1 => (format!("{site}:{one_in}"), one_in, 0),
            _ => (format!("{site}:{one_in}:{offset}"), one_in, offset),
        };
        good.push_str(&format!(";{entry}"));
        expected = expected.with_site(site, one_in, offset);
    }
    assert_eq!(ChaosPlan::parse(&good), Ok(expected));
    let mut accepted = 0;
    for m in mutants(&good, 7) {
        let Ok(plan) = ChaosPlan::parse(&m.text) else {
            continue;
        };
        accepted += 1;
        for s in &plan.sites {
            assert!(
                sites::ALL.contains(&s.site.as_str()),
                "unknown site {:?} accepted from {:?}",
                s.site,
                m.text
            );
            assert!(
                s.one_in >= 1 && s.offset < s.one_in,
                "unrunnable schedule {s:?} accepted from {:?}",
                m.text
            );
        }
    }
    assert!(
        accepted > 0,
        "no damaged plan parsed: the sweep checked nothing"
    );
}

/// The request `text` holds, restated on string slices: the request
/// line's first two words, newline-terminated header lines up to the
/// first one that trims to nothing, and exactly the last
/// `Content-Length` bytes after it. `None` where the head or the body is
/// cut short.
fn reference_request(text: &str) -> Option<Request> {
    let mut lines = text.split_inclusive('\n');
    let first = lines.next()?;
    let mut words = first.split_whitespace();
    let (method, path) = (words.next()?.to_owned(), words.next()?.to_owned());
    let mut head = first.len();
    let mut length = 0;
    loop {
        let line = lines.next().filter(|l| l.ends_with('\n'))?;
        head += line.len();
        let line = line.trim();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                length = value.trim().parse().ok()?;
            }
        }
    }
    let body = text.get(head..head.checked_add(length)?)?.to_owned();
    Some(Request { method, path, body })
}

#[test]
fn damaged_request_heads_are_rejected_or_well_formed() {
    let requests = [
        "GET /v1/jobs/17 HTTP/1.1\r\nHost: 127.0.0.1:7878\r\nAccept: */*\r\n\r\n",
        "POST /v1/jobs HTTP/1.1\r\nHost: 127.0.0.1:7878\r\nContent-Type: application/json\r\n\
         Content-Length: 43\r\n\r\n{\"kind\":\"single\",\"workload\":\"mcf\",\"seed\":3}",
    ];
    let (mut accepted, mut rejected) = (0, 0);
    for (seed, good) in (11..).zip(requests) {
        let parsed = parse_request(good.as_bytes()).expect("good request parses");
        assert!(good.ends_with(&format!("\r\n\r\n{}", parsed.body)));
        assert_eq!(Some(parsed), reference_request(good));
        for m in mutants(good, seed) {
            let Ok(req) = parse_request(m.text.as_bytes()) else {
                rejected += 1;
                assert_eq!(reference_request(&m.text), None, "rejected {:?}", m.text);
                continue;
            };
            accepted += 1;
            assert!(!m.truncated, "accepted a truncated request {:?}", m.text);
            assert!(
                !req.method.is_empty() && !req.path.is_empty(),
                "no method or path in {req:?}"
            );
            // The body is exactly what the head's Content-Length claims.
            assert_eq!(Some(req), reference_request(&m.text), "from {:?}", m.text);
        }
    }
    assert!(
        accepted > 0 && rejected > 0,
        "{accepted} accepted, {rejected} rejected"
    );
    // Every proper prefix is truncated, cuts inside the final line
    // break included.
    for good in requests {
        for cut in 0..good.len() {
            let text = &good[..cut];
            assert!(parse_request(text.as_bytes()).is_err(), "accepted {text:?}");
        }
    }

    // The limits fire before anything proportional to them is read, and
    // not one byte early.
    let line = |len: usize| format!("GET /{} HTTP/1.1\r\n", "a".repeat(len - 16));
    assert_eq!(line(MAX_REQUEST_LINE).len(), MAX_REQUEST_LINE);
    let at_limit = format!("{}\r\n", line(MAX_REQUEST_LINE));
    assert!(parse_request(at_limit.as_bytes()).is_ok());
    let over = format!("{}\r\n", line(MAX_REQUEST_LINE + 1));
    assert!(matches!(
        parse_request(over.as_bytes()),
        Err(RequestError::TooLarge(_))
    ));
    let header = format!("X-Pad: {}\r\n", "b".repeat(MAX_HEADER_BYTES));
    let fat = format!("GET / HTTP/1.1\r\n{header}\r\n");
    assert!(matches!(
        parse_request(fat.as_bytes()),
        Err(RequestError::TooLarge(_))
    ));
    let huge = format!(
        "POST /v1/jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        MAX_BODY_BYTES + 1
    );
    assert!(matches!(
        parse_request(huge.as_bytes()),
        Err(RequestError::TooLarge(_))
    ));
}
