//! The `maskd` binary: resolve configuration, boot the daemon, serve
//! until killed. `MASKD_ADDR=127.0.0.1:0` binds an ephemeral port; the
//! bound address is printed either way so callers can parse it. A `MASKD_*`
//! value that does not parse stops the boot with status 2.

fn main() {
    let cfg = maskd::DaemonConfig::from_env().unwrap_or_else(|e| {
        eprintln!("[maskd] {e}");
        std::process::exit(2);
    });
    match maskd::Daemon::spawn(cfg) {
        Ok(handle) => {
            println!("[maskd] listening on {}", handle.addr());
            // Serve forever: the daemon's own threads do all the work,
            // and the process is stopped by signal. Parking (instead of
            // returning) keeps the handle — and the listener — alive.
            loop {
                std::thread::park();
            }
        }
        Err(e) => {
            eprintln!("[maskd] failed to start: {e}");
            std::process::exit(1);
        }
    }
}
