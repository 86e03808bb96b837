//! Queue sizing through the daemon on the systems that used to defeat it:
//! designs whose practical MST already equals the ideal one must answer
//! 200 with zero extra slots and no cycle search at all; a dense degraded
//! SCC must hit the search's work bound in bounded time and free its
//! worker; and the solver work counters must show up on `/metrics`.

use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lis_core::{figures, ideal_mst, practical_mst, to_netlist, LisSystem};
use lis_gen::{generate, torus, GeneratorConfig, InsertionPolicy};
use lis_qs::{solve, Algorithm, QsConfig};
use lis_server::wire::{obj, Json};
use lis_server::{parse_metric, Client, Server, ServerConfig};
use marked_graph::Ratio;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn start(
    config: ServerConfig,
) -> (
    std::net::SocketAddr,
    JoinHandle<std::io::Result<lis_server::DrainReport>>,
) {
    let server = Server::bind("127.0.0.1:0", config).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr");
    (addr, std::thread::spawn(move || server.run()))
}

fn stop(addr: std::net::SocketAddr, daemon: JoinHandle<std::io::Result<lis_server::DrainReport>>) {
    let mut client = Client::connect(addr).expect("connect for shutdown");
    assert_eq!(client.shutdown().expect("shutdown request"), 200);
    daemon.join().expect("daemon thread").expect("clean exit");
}

fn counter(client: &mut Client, name: &str) -> f64 {
    let text = client.metrics().expect("scrape /metrics");
    parse_metric(&text, name).unwrap_or_else(|| panic!("{name} missing from /metrics"))
}

/// A torus with one relay station on each listed channel.
fn torus_with_stations(side: usize, stations: &[usize]) -> LisSystem {
    let mut sys = torus(side, side).system;
    let channels: Vec<_> = sys.channel_ids().collect();
    for &c in stations {
        sys.add_relay_station(channels[c]);
    }
    sys
}

/// Systems whose finite queues cost no throughput: the Table IV-style
/// v=120 design with practical = ideal = 5/7 (over a million elementary
/// cycles in `d[G]`), the 5×5 torus with 12 relay stations (6/11), and a
/// 4×4 torus with 8 relay stations as the benchmark's `noc` probes use.
/// Full cycle enumeration exceeds the default cycle limit on each.
fn undegraded_probes() -> Vec<(&'static str, LisSystem, Ratio)> {
    let cfg = GeneratorConfig {
        policy: InsertionPolicy::Any,
        ..GeneratorConfig::table4(120, 10)
    };
    let random = generate(&cfg, &mut StdRng::seed_from_u64(20)).system;
    let torus5 = torus_with_stations(5, &[44, 52, 9, 31, 38, 26, 95, 84, 87, 67, 22, 48]);
    let torus4 = torus_with_stations(4, &[50, 53, 1, 58, 30, 29, 38, 14]);
    vec![
        ("random v=120", random, Ratio::new(5, 7)),
        ("5x5 torus, 12 stations", torus5, Ratio::new(6, 11)),
        ("4x4 torus, 8 stations", torus4, Ratio::new(3, 5)),
    ]
}

#[test]
fn undegraded_systems_size_nothing_without_a_cycle_search() {
    let (addr, daemon) = start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).expect("connect");
    for (label, sys, theta) in undegraded_probes() {
        assert_eq!(ideal_mst(&sys), theta, "{label}: ideal MST");
        assert_eq!(practical_mst(&sys), theta, "{label}: practical MST");
        for exact in [false, true] {
            let (status, body) = client
                .analysis("qs", &to_netlist(&sys), obj([("exact", Json::Bool(exact))]))
                .expect("qs round trip");
            assert_eq!(status, 200, "{label} (exact={exact}): {body}");
            assert_eq!(body.get("total_extra").unwrap().as_u64(), Some(0));
            assert_eq!(body.get("deficient_cycles").unwrap().as_u64(), Some(0));
            assert_eq!(body.get("optimal").unwrap().as_bool(), Some(true));
        }
    }
    // Not one cycle was closed: extraction never searched.
    assert_eq!(counter(&mut client, "lis_qs_cycles_examined_total"), 0.0);
    assert_eq!(counter(&mut client, "lis_qs_deficient_cycles_total"), 0.0);
    stop(addr, daemon);
}

#[test]
fn qs_work_counters_count_one_solve() {
    let (addr, daemon) = start(ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    assert_eq!(counter(&mut client, "lis_qs_cycles_examined_total"), 0.0);
    assert_eq!(counter(&mut client, "lis_qs_deficient_cycles_total"), 0.0);

    let (sys, _, _) = figures::fig1();
    let expected = solve(&sys, Algorithm::Heuristic, &QsConfig::default()).expect("fig1 sizes");
    assert!(expected.total_cycles >= expected.deficient_cycles);
    assert_eq!(expected.deficient_cycles, 1);

    let netlist = to_netlist(&sys);
    let (status, body) = client
        .analysis("qs", &netlist, Json::Null)
        .expect("qs round trip");
    assert_eq!(status, 200);
    // The counters live on /metrics only; the body is unchanged.
    assert!(body.get("total_cycles").is_none());
    let examined = counter(&mut client, "lis_qs_cycles_examined_total");
    let deficient = counter(&mut client, "lis_qs_deficient_cycles_total");
    assert_eq!(examined, expected.total_cycles as f64);
    assert_eq!(deficient, 1.0);

    // A cache hit does no solver work.
    let (status, _) = client
        .analysis("qs", &netlist, Json::Null)
        .expect("cached qs");
    assert_eq!(status, 200);
    assert_eq!(
        counter(&mut client, "lis_qs_cycles_examined_total"),
        examined
    );
    assert_eq!(
        counter(&mut client, "lis_qs_deficient_cycles_total"),
        deficient
    );
    stop(addr, daemon);
}

#[test]
fn qs_work_counters_count_sweep_points() {
    let (addr, daemon) = start(ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    let (sys, _, lower) = figures::fig1();
    // Fig. 1's lower queue at capacity 1 (degraded) and 2 (restored).
    let mut expected = (0, 0);
    for q in [1, 2] {
        let mut point = sys.clone();
        point.set_queue_capacity(lower, q).expect("q >= 1");
        let report = solve(&point, Algorithm::Heuristic, &QsConfig::default()).expect("sizes");
        expected.0 += report.total_cycles;
        expected.1 += report.deficient_cycles;
    }
    assert_eq!(expected.1, 1);
    let grid = obj([
        ("mode", Json::str("qs")),
        (
            "capacities",
            Json::Arr(vec![obj([
                ("channel", Json::num(lower.index() as f64)),
                ("values", Json::Arr(vec![Json::num(1.0), Json::num(2.0)])),
            ])]),
        ),
    ]);
    let (status, _) = client.sweep(&to_netlist(&sys), grid).expect("sweep");
    assert_eq!(status, 200);
    assert_eq!(
        counter(&mut client, "lis_qs_cycles_examined_total"),
        expected.0 as f64
    );
    assert_eq!(
        counter(&mut client, "lis_qs_deficient_cycles_total"),
        expected.1 as f64
    );
    stop(addr, daemon);
}

/// A degraded design whose doubled graph holds a dense SCC: blocks `S` and
/// `A` carry Fig. 1's two-channel degradation, and `A` joins a complete
/// cluster of `k` blocks. Every path from `S` into the cluster dead-ends
/// (the way back runs through `A`), and the cluster's own cycles number
/// in the billions.
fn dense_degraded(k: usize) -> LisSystem {
    let mut sys = LisSystem::new();
    let s = sys.add_block("S");
    let a = sys.add_block("A");
    let upper = sys.add_channel(s, a);
    sys.add_relay_station(upper);
    sys.add_channel(s, a);
    let cluster: Vec<_> = (0..k).map(|i| sys.add_block(format!("C{i}"))).collect();
    for (i, &ci) in cluster.iter().enumerate() {
        sys.add_channel(a, ci);
        for &cj in &cluster[i + 1..] {
            sys.add_channel(ci, cj);
        }
    }
    sys
}

#[test]
fn dense_degraded_scc_hits_the_work_bound_and_frees_the_worker() {
    let (addr, daemon) = start(ServerConfig {
        workers: 1,
        request_timeout: Duration::from_secs(300),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).expect("connect");
    let sys = dense_degraded(12);
    assert!(practical_mst(&sys) < ideal_mst(&sys));

    let started = Instant::now();
    let (status, body) = client
        .analysis("qs", &to_netlist(&sys), Json::Null)
        .expect("qs round trip");
    let spent = started.elapsed();
    assert_eq!(status, 422, "{body}");
    let error = body.get("error").expect("typed error body");
    assert_eq!(error.get("kind").unwrap().as_str(), Some("analysis_error"));
    let message = error.get("message").unwrap().as_str().unwrap();
    assert!(
        message.contains("cycle enumeration exceeded the limit"),
        "{message}"
    );
    assert!(spent < Duration::from_secs(120), "took {spent:?}");

    // The single worker is back in the pool: the next job runs at once.
    let (fig1, _, _) = figures::fig1();
    let (status, _) = client
        .analysis("analyze", &to_netlist(&fig1), Json::Null)
        .expect("analyze after the refusal");
    assert_eq!(status, 200);
    assert_eq!(counter(&mut client, "lis_queue_depth"), 0.0);
    stop(addr, daemon);
}
