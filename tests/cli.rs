//! Integration tests driving the `ptsched` binary: malformed or
//! out-of-range arguments must exit with status 2 and a usage pointer
//! (never a panic), and `ptsched serve` must answer line-delimited JSON
//! requests on stdin and over TCP, one reply per line, whatever the line.

use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_ptsched");

fn run(args: &[&str]) -> std::process::Output {
    Command::new(BIN)
        .args(args)
        .output()
        .expect("run ptsched binary")
}

#[test]
fn bad_arguments_exit_2_with_a_message_not_a_panic() {
    // Every entry used to reach an assert inside the scheduling pipeline
    // (with_cores, with_fixed_groups, empty step graphs) or already exited
    // 2 via the parser; all must now take the usage path.
    let cases: &[&[&str]] = &[
        &["--cores", "7"],            // not a whole number of nodes
        &["--cores", "0"],            // zero cores
        &["--cores", "1000000"],      // more cores than the machine has
        &["--cores", "abc"],          // malformed number
        &["--groups", "0"],           // zero groups
        &["--steps", "0"],            // empty step graph
        &["--steps"],                 // missing value
        &["--workload", "nope"],      // unknown workload
        &["--platform", "nope"],      // unknown platform
        &["--mapping", "nope"],       // unknown mapping
        &["--bogus-flag"],            // unknown option
        &["serve", "--workers", "0"], // serve: zero workers
    ];
    for args in cases {
        let out = run(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "ptsched {args:?} should exit 2, got {:?}\nstderr: {stderr}",
            out.status
        );
        assert!(
            stderr.contains("ptsched:") && stderr.contains("--help"),
            "ptsched {args:?} should print a usage pointer, got: {stderr}"
        );
        assert!(
            !stderr.contains("panicked"),
            "ptsched {args:?} panicked: {stderr}"
        );
    }
}

#[test]
fn help_exits_0() {
    let out = run(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage:"));
    let out = run(&["serve", "--help"]);
    assert_eq!(out.status.code(), Some(0));
}

#[test]
fn serve_answers_json_lines_on_stdin() {
    let mut child = Command::new(BIN)
        .args(["serve", "--workers", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn ptsched serve");
    let mut stdin = child.stdin.take().expect("stdin pipe");
    let stdout = BufReader::new(child.stdout.take().expect("stdout pipe"));

    let deep = deep_line();
    let requests = [
        r#"{"workload":"epol","cores":16,"steps":1}"#,
        r#"{"workload":"epol","cores":16,"steps":1}"#,
        r#"{"workload":"epol","cores":7,"steps":1}"#,
        r#"{"cmd":"stats"}"#,
        &deep,
        r#"{"cmd":5}"#,
        r#"[1,2]"#,
    ];
    for r in requests {
        writeln!(stdin, "{r}").expect("write request");
    }
    drop(stdin); // EOF ends the serve loop

    let lines: Vec<String> = stdout.lines().map(|l| l.expect("response line")).collect();
    assert_eq!(
        lines.len(),
        requests.len(),
        "one response per request: {lines:?}"
    );

    // First request computes, second hits the cache with the same result.
    assert!(lines[0].contains(r#""ok":true"#) && lines[0].contains(r#""cache":"miss""#));
    assert!(lines[1].contains(r#""ok":true"#) && lines[1].contains(r#""cache":"hit""#));
    let field = |line: &str, key: &str| -> String {
        let start = line.find(key).unwrap_or_else(|| panic!("{key} in {line}")) + key.len();
        line[start..]
            .chars()
            .take_while(|c| !",}".contains(*c))
            .collect()
    };
    assert_eq!(
        field(&lines[0], r#""makespan_ms_per_step":"#),
        field(&lines[1], r#""makespan_ms_per_step":"#),
        "cache hit must return the identical makespan"
    );

    // Invalid request fails the line, not the process.
    assert!(lines[2].contains(r#""ok":false"#) && lines[2].contains("whole number"));
    // Stats reflect the hit and the two answered schedule requests.
    assert!(lines[3].contains(r#""hits":1"#) && lines[3].contains(r#""misses":1"#));
    // Hostile or ill-typed lines get an error reply, never a default
    // schedule or a crash.
    assert!(lines[4].contains(r#""ok":false"#) && lines[4].contains("recursion limit"));
    assert!(lines[5].contains(r#""ok":false"#) && lines[5].contains("`cmd` must be a string"));
    assert!(lines[6].contains(r#""ok":false"#) && lines[6].contains("JSON object"));

    let status = child.wait().expect("serve exits");
    assert!(
        status.success(),
        "serve should exit 0 on EOF, got {status:?}"
    );
}

/// One request line nesting 20 000 arrays, deep enough to overflow the
/// stack of a parser that recurses without a bound.
fn deep_line() -> String {
    format!(r#"{{"cmd":{}{}}}"#, "[".repeat(20_000), "]".repeat(20_000))
}

/// Kills the wrapped child when dropped, so a failing test leaves no
/// server behind.
struct KillOnDrop(std::process::Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn serve_over_tcp_survives_a_deeply_nested_line() {
    let mut child = KillOnDrop(
        Command::new(BIN)
            .args(["serve", "--listen", "127.0.0.1:0", "--workers", "1"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn ptsched serve --listen"),
    );
    let mut banner = String::new();
    BufReader::new(child.0.stdout.take().expect("stdout pipe"))
        .read_line(&mut banner)
        .expect("read listen banner");
    let addr = banner
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"));
    let stream = std::net::TcpStream::connect(addr).expect("connect to ptsched serve");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .expect("set read timeout");
    let mut replies = BufReader::new(stream.try_clone().expect("clone stream")).lines();
    let mut ask = |line: &str| -> String {
        writeln!(&stream, "{line}").expect("send request");
        replies
            .next()
            .expect("one reply per line")
            .expect("read reply")
    };
    let reply = ask(&deep_line());
    assert!(
        reply.contains(r#""ok":false"#) && reply.contains("recursion limit"),
        "deep line must fail alone: {reply}"
    );
    // The same connection, and so the process, still answers.
    let reply = ask(r#"{"cmd":"stats"}"#);
    assert!(
        reply.contains(r#""ok":true"#),
        "stats after the deep line: {reply}"
    );
    assert!(
        child.0.try_wait().expect("poll serve").is_none(),
        "serve must still be running"
    );
}

#[test]
fn serve_submit_and_tenant_run_a_job_stream() {
    let mut child = Command::new(BIN)
        .args(["serve", "--workers", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn ptsched serve");
    let mut stdin = child.stdin.take().expect("stdin pipe");
    let stdout = BufReader::new(child.stdout.take().expect("stdout pipe"));

    let requests = [
        r#"{"cmd":"tenant","cores":16}"#, // nothing submitted yet
        r#"{"cmd":"submit","workload":"epol","steps":1,"arrival":0.0,"min_width":2}"#,
        r#"{"cmd":"submit","workload":"bt-mz","steps":1,"arrival":0.002,"min_width":4}"#,
        r#"{"cmd":"submit","workload":"irk","steps":1,"arrival":0.004,"min_width":2}"#,
        r#"{"cmd":"submit","workload":"nope"}"#, // invalid job rejected
        r#"{"cmd":"tenant","platform":"chic","cores":16,"policy":"fcfs","drain":false}"#,
        r#"{"cmd":"tenant","platform":"chic","cores":16,"policy":"malleable"}"#,
        r#"{"cmd":"tenant","platform":"chic","cores":16}"#, // drained above
    ];
    for r in requests {
        writeln!(stdin, "{r}").expect("write request");
    }
    drop(stdin);

    let lines: Vec<String> = stdout.lines().map(|l| l.expect("response line")).collect();
    assert_eq!(lines.len(), requests.len(), "one response per request");
    assert!(lines[0].contains(r#""ok":false"#) && lines[0].contains("no jobs submitted"));
    for (i, queued) in [(1usize, 1usize), (2, 2), (3, 3)] {
        assert!(
            lines[i].contains(&format!(r#""queued":{queued}"#)),
            "submit #{i}: {}",
            lines[i]
        );
    }
    assert!(lines[4].contains(r#""ok":false"#) && lines[4].contains("unknown workload"));
    assert!(
        lines[5].contains(r#""policy":"fcfs-exclusive""#)
            && lines[5].contains(r#""jobs":3"#)
            && lines[5].contains(r#""resizes":0"#),
        "fcfs scenario: {}",
        lines[5]
    );
    assert!(
        lines[6].contains(r#""policy":"malleable""#) && lines[6].contains(r#""per_job""#),
        "malleable scenario: {}",
        lines[6]
    );
    // The stream was kept by drain:false and consumed by the drain run.
    assert!(lines[7].contains("no jobs submitted"), "{}", lines[7]);

    let status = child.wait().expect("serve exits");
    assert!(status.success());
}

#[test]
fn one_shot_run_still_works() {
    let out = run(&["--workload", "epol", "--cores", "16", "--steps", "1"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("simulated time per step by mapping"));
}
