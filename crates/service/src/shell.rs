//! The IO shell around [`ServiceMachine`]: a TCP accept loop, one reader
//! thread per client, and a worker pool, all funnelled into a single
//! event queue the machine consumes.
//!
//! The shell makes no decisions: it translates socket activity into
//! [`Event`]s, executes the [`Action`]s the machine returns, and runs
//! simulations on the worker pool with the engine's full per-request
//! policy ([`Runner::run_one`]: store read/write-through, bounded-retry
//! panic isolation, quarantine). Everything here is plain `std` —
//! blocking reads on reader threads, a blocking accept thread, `mpsc`
//! channels — so the daemon needs no runtime and never sleeps.
//!
//! Drain wakes the accept thread by connecting to the listener itself;
//! the thread sees the stop flag, drops that connection and exits, so
//! the port is free again when [`Server::run`] returns. The lines one
//! event produces for a client (a warm job's `accepted`, progress and
//! `done` lines) leave in a single write.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::thread;

use commsense_core::engine::{RunRequest, Runner, WorkloadCache};
use commsense_core::store::ResultStore;

use crate::machine::{Action, ClientId, Event, RunId, ServiceMachine};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to bind (`127.0.0.1:0` picks an ephemeral port; read it
    /// back with [`Server::local_addr`]).
    pub addr: String,
    /// Worker threads executing simulations (minimum 1).
    pub workers: usize,
    /// Persistent result store shared by all workers (read-through,
    /// write-through, quarantine), or `None` for in-memory dedup only.
    pub store: Option<Arc<ResultStore>>,
    /// Retries per panicking run (as `Runner::with_retries`).
    pub retries: usize,
    /// Suppress the daemon's stderr log lines.
    pub quiet: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            store: None,
            retries: 1,
            quiet: false,
        }
    }
}

/// A bound (but not yet running) daemon.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    cfg: ServeConfig,
}

impl Server {
    /// Binds the listening socket. The port is allocated here, so
    /// callers can read [`Server::local_addr`] (and publish it) before
    /// the blocking [`Server::run`] starts.
    pub fn bind(cfg: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        Ok(Server { listener, cfg })
    }

    /// The bound address (resolves `:0` to the allocated port).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Runs the daemon until a `shutdown` request drains it. Returns
    /// after every in-flight run has finished and all clients are
    /// closed; the listening port is released on return.
    pub fn run(self) -> io::Result<()> {
        let Server { listener, cfg } = self;
        let (events_tx, events_rx) = channel::<Event>();
        let (work_tx, work_rx) = channel::<(RunId, RunRequest, u128)>();
        let work_rx = Arc::new(Mutex::new(work_rx));
        let stop = Arc::new(AtomicBool::new(false));
        let writers: Arc<Mutex<HashMap<ClientId, TcpStream>>> =
            Arc::new(Mutex::new(HashMap::new()));
        let log = |line: String| {
            if !cfg.quiet {
                eprintln!("[serve] {line}");
            }
        };

        // Worker pool: each worker owns a serial Runner (the pool is the
        // parallelism) and shares one workload cache, so a workload is
        // prepared once per daemon lifetime however many jobs need it, and
        // only by a run that simulates.
        let mut runner = Runner::serial().with_retries(cfg.retries);
        if let Some(store) = &cfg.store {
            runner = runner.with_store(store.clone());
        }
        let wcache = Arc::new(Mutex::new(WorkloadCache::new()));
        for _ in 0..cfg.workers.max(1) {
            let work_rx = work_rx.clone();
            let events_tx = events_tx.clone();
            let runner = runner.clone();
            let wcache = wcache.clone();
            thread::spawn(move || loop {
                let next = work_rx.lock().expect("work queue poisoned").recv();
                let Ok((run, req, key)) = next else { break };
                let outcome = Box::new(runner.run_one(&req, key, &wcache));
                if events_tx.send(Event::RunDone { run, outcome }).is_err() {
                    break;
                }
            });
        }

        // Accept thread: blocks in accept(); drain wakes it (see below).
        let mut wake_addr = listener.local_addr()?;
        if wake_addr.ip().is_unspecified() {
            wake_addr.set_ip(match wake_addr.ip() {
                IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let acceptor = {
            let events_tx = events_tx.clone();
            let writers = writers.clone();
            let stop = stop.clone();
            thread::spawn(move || {
                for (id, stream) in (1..).zip(listener.incoming()) {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { break };
                    stream.set_nodelay(true).ok();
                    let Ok(write_half) = stream.try_clone() else {
                        continue;
                    };
                    writers
                        .lock()
                        .expect("writer table poisoned")
                        .insert(id, write_half);
                    if events_tx.send(Event::Connected(id)).is_err() {
                        break;
                    }
                    spawn_reader(id, stream, events_tx.clone());
                }
            })
        };

        // The machine loop: single-threaded, so action execution is
        // totally ordered and per-client line order is preserved.
        let mut machine = ServiceMachine::new();
        // Consecutive lines for one client, written together by `flush`.
        let mut out: Option<(ClientId, Vec<u8>)> = None;
        let flush = |out: &mut Option<(ClientId, Vec<u8>)>| {
            let Some((c, bytes)) = out.take() else { return };
            let mut writers = writers.lock().expect("writer table poisoned");
            let failed = match writers.get_mut(&c) {
                Some(s) => s.write_all(&bytes).is_err(),
                None => false,
            };
            if failed {
                // The reader thread will also notice, but the machine
                // tolerates duplicate disconnects and a dead writer
                // should stop receiving now.
                writers.remove(&c);
                events_tx.send(Event::Disconnected(c)).ok();
            }
        };
        while let Ok(event) = events_rx.recv() {
            match &event {
                Event::Connected(c) => log(format!("client {c} connected")),
                Event::Disconnected(c) => {
                    log(format!("client {c} disconnected"));
                    // The reader has dropped its half; dropping ours
                    // closes the socket instead of leaking a descriptor
                    // per client.
                    writers.lock().expect("writer table poisoned").remove(c);
                }
                _ => {}
            }
            let mut stop_now = false;
            for action in machine.handle(event) {
                // Every non-`Send` action flushes first, so actions still
                // take effect in the order the machine returned them.
                match action {
                    Action::Send(c, line) => {
                        if out.as_ref().is_some_and(|(to, _)| *to != c) {
                            flush(&mut out);
                        }
                        let (_, bytes) = out.get_or_insert_with(|| (c, Vec::new()));
                        bytes.extend_from_slice(line.as_bytes());
                        bytes.push(b'\n');
                    }
                    Action::Start { run, request, key } => {
                        flush(&mut out);
                        work_tx.send((run, *request, key)).ok();
                    }
                    Action::Close(c) => {
                        flush(&mut out);
                        if let Some(s) = writers.lock().expect("writer table poisoned").remove(&c) {
                            s.shutdown(Shutdown::Both).ok();
                        }
                    }
                    Action::Stop => {
                        flush(&mut out);
                        stop_now = true;
                    }
                }
            }
            flush(&mut out);
            if stop_now {
                break;
            }
        }
        log("drained, stopping".to_string());
        // Dropping the work sender ends idle workers.
        drop(work_tx);
        // Wake the blocked accept() with a connection of our own; the
        // accept thread sees the flag, drops it and releases the port.
        // Joining is safe only once the wake-up connected.
        stop.store(true, Ordering::SeqCst);
        if TcpStream::connect(wake_addr).is_ok() {
            acceptor.join().ok();
        }
        Ok(())
    }
}

/// Longest client line the daemon reads, newline included; a longer one
/// disconnects its client. The largest real `ClientMsg` is under 1 KiB.
const MAX_LINE_BYTES: u64 = 64 * 1024;

/// Reads protocol lines from one client until EOF, error or an overlong
/// line, forwarding each as an event; always ends with a `Disconnected`
/// event.
fn spawn_reader(id: ClientId, stream: TcpStream, events: Sender<Event>) {
    thread::spawn(move || {
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        loop {
            line.clear();
            match (&mut reader).take(MAX_LINE_BYTES).read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(n) if n as u64 == MAX_LINE_BYTES && !line.ends_with('\n') => break,
                Ok(_) => {
                    let trimmed = line.trim();
                    if trimmed.is_empty() {
                        continue;
                    }
                    if events.send(Event::Line(id, trimmed.to_string())).is_err() {
                        return;
                    }
                }
            }
        }
        events.send(Event::Disconnected(id)).ok();
    });
}
