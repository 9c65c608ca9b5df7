//! Shutdown racing the daemon's own threads: a submission admitted while
//! the pool drains, and pool workers that have not gone to sleep yet when
//! the shutdown notice goes out. Neither may leave a client or `join`
//! waiting forever.

use std::sync::mpsc::channel;
use std::time::Duration;

use numadag_serve::client::ServeClient;
use numadag_serve::protocol::{Request, Response, SweepSpec};
use numadag_serve::server::{serve, ServeConfig};

#[test]
fn a_submission_racing_shutdown_gets_a_terminal_answer() {
    let handle = serve(ServeConfig::default()).unwrap();
    let mut client =
        ServeClient::connect_with_timeout(&handle.addr().to_string(), Duration::from_secs(5))
            .unwrap();
    // A cold Full sweep spends milliseconds fingerprinting and planning
    // before it reaches admission: shut down inside that window.
    client
        .send(&Request::SubmitSweep {
            spec: SweepSpec {
                scale: "full".to_string(),
                ..SweepSpec::default()
            },
            stream: false,
        })
        .unwrap();
    std::thread::sleep(Duration::from_millis(1));
    handle.shutdown();
    loop {
        match client.recv() {
            Ok(Response::Submitted { .. }) => continue,
            Ok(Response::Error { .. } | Response::Report { .. }) => break,
            other => panic!("expected a terminal Error or Report, got {other:?}"),
        }
    }
    handle.join();
}

#[test]
fn shutdown_wakes_every_pool_worker_however_soon_it_follows_boot() {
    let (done, cycles) = channel();
    std::thread::spawn(move || {
        for cycle in 0..3_000 {
            let handle = serve(ServeConfig {
                pool: 4,
                ..ServeConfig::default()
            })
            .unwrap();
            handle.shutdown();
            handle.join();
            if done.send(cycle).is_err() {
                return;
            }
        }
    });
    for cycle in 0..3_000 {
        match cycles.recv_timeout(Duration::from_secs(3)) {
            Ok(finished) => assert_eq!(finished, cycle),
            Err(_) => panic!("boot, shutdown and join hung at cycle {cycle}"),
        }
    }
}
