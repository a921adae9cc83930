//! `hybrid-node` — one HYBRID node as a process.
//!
//! Usage:
//!
//! ```text
//! hybrid-node [stdio]            # speak frames over stdin/stdout (default)
//! hybrid-node --connect ADDR     # connect back to a driver over TCP
//! ```
//!
//! The process serves exactly one node: it waits for the driver's `Init`
//! frame, steps its program at every `Round` barrier, and exits after
//! answering `Halt` (or when the driver closes the connection).

#![forbid(unsafe_code)]

use std::io;
use std::net::TcpStream;
use std::process::ExitCode;

use hybrid_node::runtime::serve;

fn run() -> io::Result<()> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None | Some("stdio") => serve(io::stdin().lock(), io::stdout().lock()),
        Some("--connect") => {
            let addr = args.get(1).ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidInput, "--connect needs an address")
            })?;
            let stream = TcpStream::connect(addr.as_str())?;
            stream.set_nodelay(true).ok();
            let reader = stream.try_clone()?;
            serve(reader, stream)
        }
        Some(other) => Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("unknown argument `{other}` (usage: hybrid-node [stdio | --connect ADDR])"),
        )),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("hybrid-node: {e}");
            ExitCode::FAILURE
        }
    }
}
