//! Golden `/analyze` bodies with `{"schedule": true}`: the schedule's
//! regime, words, phases and occupancy bounds must stay byte-identical to
//! the committed fixtures, served over real TCP.
//!
//! Each case is a netlist `schedule_golden/<name>.lis` and the body the
//! service answered for it, `schedule_golden/<name>.json`: Figs. 1, 6 and
//! 15, a 3×3 torus with two relay stations, and two seeded 300-block rings
//! with one and six relay stations (periods 301 and 306; the second has
//! no balanced phase).

use lis_server::wire::{obj, Json};
use lis_server::{Client, Server, ServerConfig};

const DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/schedule_golden");

const CASES: [&str; 6] = [
    "fig1",
    "fig6",
    "fig15",
    "torus3x3_rs2",
    "ring300_rs1",
    "ring300_rs6",
];

#[test]
fn schedule_bodies_match_the_golden_fixtures() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr");
    let daemon = std::thread::spawn(move || server.run());
    let mut client = Client::connect(addr).expect("connect");
    for name in CASES {
        let netlist =
            std::fs::read_to_string(format!("{DIR}/{name}.lis")).expect("fixture netlist");
        let golden = std::fs::read(format!("{DIR}/{name}.json")).expect("fixture body");
        let request = obj([
            ("netlist", Json::str(&netlist)),
            ("options", obj([("schedule", Json::Bool(true))])),
        ]);
        let response = client
            .request("POST", "/analyze", request.to_string().as_bytes())
            .expect("analyze");
        assert_eq!(response.status, 200, "{name}");
        assert!(
            response.body == golden,
            "{name}: body differs from the golden fixture\n got: {}",
            String::from_utf8_lossy(&response.body)
        );
    }
    assert_eq!(client.shutdown().expect("shutdown request"), 200);
    daemon.join().expect("daemon thread").expect("clean exit");
}
