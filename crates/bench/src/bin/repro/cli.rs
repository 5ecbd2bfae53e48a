//! `repro`'s command line, parsed without side effects: each command has
//! its own argument struct with only the flags it reads. A flag the
//! command does not take, or a valued flag without its operand, is an
//! error; [`parse`] returns its text.

use std::iter::Peekable;
use std::vec::IntoIter;

use commsense_apps::Scale;
use commsense_core::figures::Figure;

/// The help text: each command with the flags it takes.
pub const USAGE: &str = "\
usage: repro [WHAT] [--paper|--small] [--csv DIR] [--check] [--jobs N] [--store [DIR]]
       repro tab1|tab2|fig6
       repro fig3 [--check]
       repro model [--paper|--small] [--check] [--jobs N] [--store [DIR]]
       repro ablate [--check] [--jobs N] [--store [DIR]]
       repro observe [--app NAME] [--mech LABEL] [--paper|--small] [--check]
                     [--cross B_PER_CYCLE] [--latency CYCLES] [--epoch N] [--dir DIR]
       repro analyze [--app NAME] [--mech LABEL] [--paper|--small] [--check]
                     [--latency CYCLES] [--epoch N] [--dir DIR]
                     [--latency-sweep [--gate PCT]] [--jobs N] [--store [DIR]]
       repro scale [--small] [--csv DIR] [--dir DIR] [--jobs N] [--store [DIR]]
       repro hostile [--full] [--paper|--small] [--csv DIR] [--dir DIR] [--check]
                     [--jobs N] [--store [DIR]]
       repro store stats|verify [--store [DIR]]
       repro store gc [--store [DIR]] [--max-bytes N]
       repro serve [--addr HOST:PORT] [--port-file F] [--quiet] [--jobs N] [--store [DIR]]
       repro submit [--addr HOST:PORT | --port-file F] [--figure FIG] [--apps A[,A..]]
                    [--mechs M[,M..]] [--paper|--small] [--csv DIR] [--id NAME]
       repro submit (--stats | --shutdown) [--addr HOST:PORT | --port-file F]
  A command takes only the flags shown with it; any other flag exits 2.
  WHAT: all (default) | fig1 | fig2 | fig4 | fig5 | fig7 | fig8 | fig9 | fig10
        (fig5 takes no --csv). `all` also prints tab1, tab2 and fig3. Each
        distinct simulation runs once; fig1, fig2 and fig5 are views of
        fig8, fig10 and fig4.
  --paper/--small  the paper's workload sizes (minutes) / unit-test sizes
  --csv      also write each sweep as CSV into DIR
  --jobs     worker threads (default: COMMSENSE_JOBS or all cores)
  --store    persist results in DIR (default: $COMMSENSE_STORE, then
             .commsense-store): warm re-runs replay from the store and an
             interrupted sweep resumes. COMMSENSE_STORE alone also enables it.
  --check    run under the correctness harness; a failed run prints one
             CHECK-FAIL line and the process exits non-zero
  --app/--mech  application (default EM3D) / mechanism label (observe:
             mp-poll; analyze: all five)
  --cross    consume N bytes/cycle of bisection with cross-traffic
  --latency  emulated remote-miss latency (analyze: of the traced run, 30)
  --latency-sweep  also run the Figure-10 sweep; write critpath_summary.csv
  --gate     exit 1 if the worst predicted-vs-simulated error exceeds PCT%
  --dir      artifact directory (default .); scale and hostile prefer --csv
  scale      node count x topology through the fig4/8/10 shapes (--small:
             mesh+torus at 64/256 nodes); hostile: protocol variant x
             hostile traffic x mechanism on EM3D, small unless --full
  store gc   deletes corrupt and stale records; --max-bytes N also evicts
             least-recently-used records down to N bytes
  serve/submit  --addr defaults to 127.0.0.1:7171 (serve: port 0 picks one
             and --port-file publishes it); submit --figure defaults to
             fig4, --apps/--mechs to what it plots, --id to job-PID";

const COMMANDS: [&str; 22] = [
    "all", "tab1", "tab2", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
    "fig10", "model", "ablate", "observe", "analyze", "scale", "hostile", "store", "serve",
    "submit",
];

/// A parsed command line.
#[derive(Debug)]
pub enum Command {
    Help,
    Fig6,
    /// `all`, `tab1`, `tab2`, `fig1`–`fig5` and `fig7`–`fig10`.
    Figures(FigureArgs),
    Model(ModelArgs),
    Ablate(AblateArgs),
    Observe(ObserveArgs),
    Analyze(AnalyzeArgs),
    Scale(ScaleArgs),
    Hostile(HostileArgs),
    Store(StoreArgs),
    Serve(ServeArgs),
    Submit(SubmitArgs),
}

/// `--jobs N` and `--store [DIR]`, for the commands that simulate.
/// `store: Some("")` means on, in the directory `COMMSENSE_STORE` names
/// (or the default).
#[derive(Debug, Default)]
pub struct SessionArgs {
    pub jobs: Option<usize>,
    pub store: Option<String>,
}

/// The figure commands. Here and below, an unset option takes its
/// default where it is used: bench scale, `.`, EM3D, a 1000-cycle epoch.
#[derive(Debug, Default)]
pub struct FigureArgs {
    /// The command word (`all`, `tab1`, `fig8`, ...).
    pub what: &'static str,
    pub scale: Option<Scale>,
    pub csv: Option<String>,
    pub check: bool,
    pub session: SessionArgs,
}

#[derive(Debug, Default)]
pub struct ModelArgs {
    pub scale: Option<Scale>,
    pub check: bool,
    pub session: SessionArgs,
}

#[derive(Debug, Default)]
pub struct AblateArgs {
    pub check: bool,
    pub session: SessionArgs,
}

/// What `observe` and `analyze` share: the run to instrument and where
/// its artifacts go.
#[derive(Debug, Default)]
pub struct ProbeArgs {
    pub app: Option<String>,
    pub mech: Option<String>,
    pub scale: Option<Scale>,
    pub check: bool,
    pub latency: Option<u64>,
    pub epoch: Option<u64>,
    pub dir: Option<String>,
}

#[derive(Debug, Default)]
pub struct ObserveArgs {
    pub probe: ProbeArgs,
    pub cross: Option<f64>,
}

#[derive(Debug, Default)]
pub struct AnalyzeArgs {
    pub probe: ProbeArgs,
    pub latency_sweep: bool,
    pub gate: Option<f64>,
    pub session: SessionArgs,
}

#[derive(Debug, Default)]
pub struct ScaleArgs {
    pub small: bool,
    pub csv: Option<String>,
    pub dir: Option<String>,
    pub session: SessionArgs,
}

#[derive(Debug, Default)]
pub struct HostileArgs {
    pub full: bool,
    pub scale: Option<Scale>,
    pub csv: Option<String>,
    pub dir: Option<String>,
    pub check: bool,
    pub session: SessionArgs,
}

#[derive(Debug, Default)]
pub struct StoreArgs {
    /// `stats`, `gc` or `verify`.
    pub action: &'static str,
    /// As [`SessionArgs::store`].
    pub store: Option<String>,
    pub max_bytes: Option<u64>,
}

#[derive(Debug, Default)]
pub struct ServeArgs {
    pub addr: Option<String>,
    pub port_file: Option<String>,
    pub quiet: bool,
    pub session: SessionArgs,
}

#[derive(Debug, Default)]
pub struct SubmitArgs {
    pub addr: Option<String>,
    pub port_file: Option<String>,
    pub figure: Option<Figure>,
    pub apps: Vec<String>,
    pub mechs: Vec<String>,
    pub scale: Option<Scale>,
    pub csv: Option<String>,
    pub id: Option<String>,
    pub stats: bool,
    pub shutdown: bool,
}

/// A flag's operand, or the error naming what the flag needs.
type Flagged<T> = Result<Option<T>, String>;

/// One flag, with the rest of the line to take its operand from.
struct Flag<'a, 'r> {
    name: &'a str,
    rest: &'r mut Peekable<IntoIter<&'a str>>,
}

impl Flag<'_, '_> {
    /// The next token converted by `parse`, or "`name` needs `what`" when
    /// it is missing, starts with `--` or does not convert.
    fn value<T>(&mut self, what: &str, parse: impl FnOnce(&str) -> Option<T>) -> Flagged<T> {
        let value = self.rest.next_if(|v| !v.starts_with("--")).and_then(parse);
        let needs = || format!("{} needs {what}", self.name);
        value.map(Some).ok_or_else(needs)
    }

    fn text(&mut self, what: &str) -> Flagged<String> {
        self.value(what, |v| Some(v.to_string()))
    }

    /// A comma-separated list, without empty items.
    fn list(&mut self) -> Result<Vec<String>, String> {
        let items = self.text("a comma-separated list")?.unwrap_or_default();
        let items = items.split(',').map(str::trim).filter(|p| !p.is_empty());
        Ok(items.map(str::to_string).collect())
    }

    fn number<T: std::str::FromStr>(&mut self, what: &str, ok: fn(&T) -> bool) -> Flagged<T> {
        self.value(what, |v| v.parse().ok().filter(ok))
    }

    /// `--store`'s optional directory: the next token unless it starts
    /// with `-` or is a command word (then `""`: the default directory).
    fn store(&mut self) -> Option<String> {
        let is_dir = |v: &&str| !v.starts_with('-') && !COMMANDS.contains(v);
        Some(self.rest.next_if(is_dir).unwrap_or_default().to_string())
    }

    /// `--paper` / `--small` into `scale`; whether the flag was one.
    fn scale(&self, scale: &mut Option<Scale>) -> bool {
        *scale = match self.name {
            "--paper" => Some(Scale::Paper),
            "--small" => Some(Scale::Small),
            _ => return false,
        };
        true
    }
}

impl SessionArgs {
    /// Takes `--jobs` or `--store`; whether `f` was one.
    fn take(&mut self, f: &mut Flag) -> Result<bool, String> {
        Ok(match f.name {
            "--jobs" => set(&mut self.jobs, f.number("a positive integer", |n| *n > 0)?),
            "--store" => set(&mut self.store, f.store()),
            _ => false,
        })
    }
}

impl ProbeArgs {
    /// Takes a flag `observe` and `analyze` share; whether `f` was one.
    fn take(&mut self, f: &mut Flag) -> Result<bool, String> {
        Ok(match f.name {
            "--app" => set(&mut self.app, f.text("an application name")?),
            "--mech" => set(&mut self.mech, f.text("a mechanism label")?),
            "--check" => set(&mut self.check, true),
            "--latency" => set(&mut self.latency, f.number("a cycle count", |_| true)?),
            "--epoch" => set(
                &mut self.epoch,
                f.number("a positive cycle count", |n| *n > 0)?,
            ),
            "--dir" => set(&mut self.dir, f.text("a directory")?),
            _ => f.scale(&mut self.scale),
        })
    }
}

/// Stores `value` in `slot`: the flag was taken.
fn set<T>(slot: &mut T, value: T) -> bool {
    *slot = value;
    true
}

/// Parses `repro`'s arguments (without the program name).
///
/// The command is the first command word on the line (default `all`),
/// wherever it stands among the flags; after `store`, the first of
/// `stats`, `gc` and `verify` is its action (default `stats`). The
/// command's own flags then read the rest, left to right.
pub fn parse(argv: &[String]) -> Result<Command, String> {
    if argv.iter().any(|a| a == "-h" || a == "--help") {
        return Ok(Command::Help);
    }
    let mut rest: Vec<&str> = argv.iter().map(String::as_str).collect();
    let mut pick = |words: &[&'static str]| {
        let i = rest.iter().position(|a| words.contains(a))?;
        let word = rest.remove(i);
        words.iter().copied().find(|w| *w == word)
    };
    let what = pick(&COMMANDS).unwrap_or("all");
    let action = if what == "store" {
        pick(&["stats", "gc", "verify"])
    } else {
        None
    };
    let rest = rest.into_iter().peekable();
    let dir = "a directory";
    Ok(match what {
        "fig6" => build(what, (), rest, |_, _| Ok(false)).map(|()| Command::Fig6)?,
        "model" => Command::Model(build(what, ModelArgs::default(), rest, |a, f| {
            Ok(match f.name {
                "--check" => set(&mut a.check, true),
                _ => f.scale(&mut a.scale) || a.session.take(f)?,
            })
        })?),
        "ablate" => Command::Ablate(build(what, AblateArgs::default(), rest, |a, f| {
            Ok(match f.name {
                "--check" => set(&mut a.check, true),
                _ => a.session.take(f)?,
            })
        })?),
        "observe" => Command::Observe(build(what, ObserveArgs::default(), rest, |a, f| {
            Ok(match f.name {
                "--cross" => set(
                    &mut a.cross,
                    f.number("a non-negative number", |c| *c >= 0.0)?,
                ),
                _ => a.probe.take(f)?,
            })
        })?),
        "analyze" => {
            let a = build(what, AnalyzeArgs::default(), rest, |a, f| {
                let percent = |p: &f64| *p > 0.0 && *p < 100.0;
                Ok(match f.name {
                    "--latency-sweep" => set(&mut a.latency_sweep, true),
                    "--gate" => set(&mut a.gate, f.number("a percentage in (0, 100)", percent)?),
                    _ => a.probe.take(f)? || a.session.take(f)?,
                })
            })?;
            if a.gate.is_some() && !a.latency_sweep {
                return Err("--gate needs --latency-sweep under analyze".to_string());
            }
            Command::Analyze(a)
        }
        "scale" => Command::Scale(build(what, ScaleArgs::default(), rest, |a, f| {
            Ok(match f.name {
                "--small" => set(&mut a.small, true),
                "--csv" => set(&mut a.csv, f.text(dir)?),
                "--dir" => set(&mut a.dir, f.text(dir)?),
                _ => a.session.take(f)?,
            })
        })?),
        "hostile" => Command::Hostile(build(what, HostileArgs::default(), rest, |a, f| {
            Ok(match f.name {
                "--full" => set(&mut a.full, true),
                "--check" => set(&mut a.check, true),
                "--csv" => set(&mut a.csv, f.text(dir)?),
                "--dir" => set(&mut a.dir, f.text(dir)?),
                _ => f.scale(&mut a.scale) || a.session.take(f)?,
            })
        })?),
        "store" => {
            let action = action.unwrap_or("stats");
            let command = format!("store {action}");
            let a = build(&command, StoreArgs::default(), rest, |a, f| {
                Ok(match f.name {
                    "--store" => set(&mut a.store, f.store()),
                    "--max-bytes" if action == "gc" => {
                        set(&mut a.max_bytes, f.number("a byte count", |_| true)?)
                    }
                    _ => false,
                })
            })?;
            Command::Store(StoreArgs { action, ..a })
        }
        "serve" => Command::Serve(build(what, ServeArgs::default(), rest, |a, f| {
            Ok(match f.name {
                "--addr" => set(&mut a.addr, f.text("HOST:PORT")?),
                "--port-file" => set(&mut a.port_file, f.text("a file path")?),
                "--quiet" => set(&mut a.quiet, true),
                _ => a.session.take(f)?,
            })
        })?),
        "submit" => Command::Submit(build(what, SubmitArgs::default(), rest, |a, f| {
            let figure = |f: &mut Flag| f.value(&Figure::choices(), Figure::from_label);
            Ok(match f.name {
                "--addr" => set(&mut a.addr, f.text("HOST:PORT")?),
                "--port-file" => set(&mut a.port_file, f.text("a file path")?),
                "--figure" => set(&mut a.figure, figure(f)?),
                "--apps" => set(&mut a.apps, f.list()?),
                "--mechs" => set(&mut a.mechs, f.list()?),
                "--csv" => set(&mut a.csv, f.text(dir)?),
                "--id" => set(&mut a.id, f.text("a job id")?),
                "--stats" => set(&mut a.stats, true),
                "--shutdown" => set(&mut a.shutdown, true),
                _ => f.scale(&mut a.scale),
            })
        })?),
        _ => {
            // The tables read no flag, fig3 only --check; fig5 writes no CSV.
            let table = matches!(what, "tab1" | "tab2");
            let runs = !table && what != "fig3";
            let a = build(what, FigureArgs::default(), rest, |a, f| {
                Ok(match f.name {
                    "--check" if !table => set(&mut a.check, true),
                    "--csv" if runs && what != "fig5" => set(&mut a.csv, f.text(dir)?),
                    _ => runs && (f.scale(&mut a.scale) || a.session.take(f)?),
                })
            })?;
            Command::Figures(FigureArgs { what, ..a })
        }
    })
}

/// `args` with every flag of `rest` taken, or an error naming the first
/// token `command` does not take (`take` returns `Ok(false)`).
fn build<'a, A>(
    command: &str,
    mut args: A,
    mut tokens: Peekable<IntoIter<&'a str>>,
    take: impl Fn(&mut A, &mut Flag<'a, '_>) -> Result<bool, String>,
) -> Result<A, String> {
    while let Some(name) = tokens.next() {
        let rest = &mut tokens;
        if !name.starts_with('-') {
            return Err(format!("unknown argument: {name}"));
        }
        if !take(&mut args, &mut Flag { name, rest })? {
            return Err(format!("repro {command} does not take {name}"));
        }
    }
    Ok(args)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_line(line: &str) -> Result<Command, String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&argv)
    }

    /// Every `repro` command line in the CI workflow, with continuation
    /// lines joined and shell redirections, pipes and `&` cut off.
    fn ci_invocations() -> Vec<String> {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../.github/workflows/ci.yml"
        );
        let yml = std::fs::read_to_string(path).expect("read the CI workflow");
        let mut lines = yml.lines();
        let mut found = Vec::new();
        while let Some(line) = lines.next() {
            let Some((_, tail)) = line
                .split_once("--bin repro --")
                .or_else(|| line.split_once("release/repro "))
            else {
                continue;
            };
            let mut command = tail.to_string();
            while command.trim_end().ends_with('\\') {
                command = command.trim_end().trim_end_matches('\\').to_string();
                command.push_str(lines.next().expect("continued line"));
            }
            let end = command.find(['>', '|', '&']).unwrap_or(command.len());
            let words: Vec<&str> = command[..end].split_whitespace().collect();
            found.push(words.join(" ").replace("$fig", "fig8"));
        }
        found
    }

    #[test]
    fn every_ci_invocation_parses() {
        let lines = ci_invocations();
        // Spot-check the extraction: the hostile smoke, the store byte cap,
        // the daemon with its options on a continuation line.
        for want in [
            "hostile --small --dir hostile-artifacts",
            "store gc --store resume.store --max-bytes 40000",
            "serve --addr 127.0.0.1:0 --port-file port.txt",
            "all --small --store all.store",
        ] {
            assert!(
                lines.iter().any(|l| l.contains(want)),
                "{want:?} not among {lines:#?}"
            );
        }
        assert!(lines.len() >= 20, "{lines:#?}");
        for line in &lines {
            if let Err(e) = parse_line(line) {
                panic!("{line:?}: {e}");
            }
        }
    }

    /// One command line per command, each flag it takes used once.
    const CANONICAL: [&str; 22] = [
        "all --small --csv out --check --jobs 2 --store st",
        "tab1",
        "tab2",
        "fig1 --paper --jobs 1",
        "fig2 --small --store",
        "fig3 --check",
        "fig4 --small --csv out --jobs 2",
        "fig5 --small --store st",
        "fig6",
        "fig7 --small --csv out",
        "fig8 --paper --check",
        "fig9 --small --jobs 3",
        "fig10 --small --csv out --store st",
        "model --small --check --jobs 2 --store st",
        "ablate --check --jobs 2 --store st",
        "observe --app EM3D --mech sm --small --check --cross 4.5 --latency 50 --epoch 1000 --dir d",
        "analyze --app ICCG --mech mp-poll --small --latency 30 --epoch 500 --dir d \
         --latency-sweep --gate 10 --jobs 2 --store st",
        "scale --small --csv out --dir d --jobs 2 --store st",
        "hostile --full --small --csv out --dir d --check --jobs 2 --store st",
        "store gc --store st --max-bytes 4000",
        "serve --addr 127.0.0.1:0 --port-file port.txt --quiet --jobs 2 --store st",
        "submit --addr 127.0.0.1:7171 --figure fig8 --apps em3d,iccg --mechs sm,mp-poll \
         --small --csv out --id job1",
    ];

    /// The parser returns a command or an error, never panics, on every
    /// truncation and every single-byte substitution (kept valid UTF-8) of
    /// each canonical line, split back into arguments at whitespace.
    #[test]
    fn parse_survives_every_byte_mutation() {
        let mut seen = 0;
        let mut check = |text: &str| {
            let parsed = std::panic::catch_unwind(|| parse_line(text));
            assert!(parsed.is_ok(), "parse panicked on {text:?}");
            seen += 1;
        };
        for line in CANONICAL {
            if let Err(e) = parse_line(line) {
                panic!("{line:?}: {e}");
            }
            let bytes = line.as_bytes();
            for end in 0..bytes.len() {
                if let Ok(text) = std::str::from_utf8(&bytes[..end]) {
                    check(text);
                }
            }
            let mut bad = bytes.to_vec();
            for i in 0..bytes.len() {
                for b in (0..=u8::MAX).filter(|&b| b != bytes[i]) {
                    bad[i] = b;
                    if let Ok(text) = std::str::from_utf8(&bad) {
                        check(text);
                    }
                }
                bad[i] = bytes[i];
            }
        }
        let bytes: usize = CANONICAL.iter().map(|l| l.len()).sum();
        assert!(seen > 100 * bytes, "too few mutations ({seen})");
    }

    #[test]
    fn store_takes_a_command_word_as_no_directory() {
        for line in [
            "--store fig4 --small",
            "fig4 --small --store",
            "fig4 --store --small",
        ] {
            let Ok(Command::Figures(a)) = parse_line(line) else {
                panic!("{line:?} is not fig4");
            };
            assert_eq!((a.what, a.scale), ("fig4", Some(Scale::Small)), "{line:?}");
            assert_eq!(a.session.store.as_deref(), Some(""), "{line:?}");
        }
        let Ok(Command::Store(a)) = parse_line("store --store S gc --max-bytes 9") else {
            panic!("store gc");
        };
        assert_eq!(
            (a.action, a.store.as_deref(), a.max_bytes),
            ("gc", Some("S"), Some(9))
        );
    }

    #[test]
    fn foreign_flags_and_words_are_named() {
        for (line, err) in [
            (
                "tab1 --latency 50 --figure fig8 --quiet",
                "repro tab1 does not take --latency",
            ),
            ("observe --csv d", "repro observe does not take --csv"),
            (
                "store stats --jobs 2",
                "repro store stats does not take --jobs",
            ),
            (
                "store verify --max-bytes 5",
                "repro store verify does not take --max-bytes",
            ),
            ("fig5 --csv d", "repro fig5 does not take --csv"),
            ("scale --paper", "repro scale does not take --paper"),
            ("fig4 --bogus", "repro fig4 does not take --bogus"),
            ("fig4 extra", "unknown argument: extra"),
            ("fig4 --jobs 0", "--jobs needs a positive integer"),
            (
                "submit --figure fig6",
                "--figure needs fig4|fig7|fig8|fig9|fig10",
            ),
            (
                "analyze --gate 25",
                "--gate needs --latency-sweep under analyze",
            ),
        ] {
            assert_eq!(parse_line(line).unwrap_err(), err, "{line:?}");
        }
    }

    #[test]
    fn submit_lists_drop_blanks() {
        let Ok(Command::Submit(a)) = parse_line("submit --apps em3d,,iccg --mechs sm") else {
            panic!("submit");
        };
        assert_eq!(
            (a.apps, a.mechs),
            (vec!["em3d".into(), "iccg".into()], vec!["sm".into()])
        );
    }
}
