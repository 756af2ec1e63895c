//! The fleet's `POST /jobs` control API refuses malformed job requests
//! with a 4xx and keeps serving. This binary holds a single test so the
//! process-wide metrics registry stays clean and `/healthz` has no reason
//! to report anything but 200.

use std::io::{Read, Write};
use std::net::SocketAddr;
use tpupoint::TpuPoint;

fn http(addr: SocketAddr, request: &str) -> String {
    let mut stream = std::net::TcpStream::connect(addr).expect("connects");
    stream.write_all(request.as_bytes()).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    response
}

#[test]
fn out_of_range_scale_is_a_client_error() {
    let root = std::env::temp_dir().join(format!("tpupoint-fleet-api-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let session = TpuPoint::builder()
        .analyzer(true)
        .output_dir(&root)
        .serve("127.0.0.1:0")
        .serve_pace_us(0)
        .build()
        .serve_fleet()
        .expect("fleet starts");
    let addr = session.addr();
    for scale in ["0", "-1", "5"] {
        let body = format!("{{\"workload\": \"bert-mrpc\", \"scale\": {scale}}}");
        let response = http(
            addr,
            &format!(
                "POST /jobs HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            ),
        );
        assert!(response.starts_with("HTTP/1.1 400"), "{scale}: {response}");
        assert!(response.contains("(0, 1]"), "{scale}: {response}");
    }
    let health = http(addr, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    assert!(health.starts_with("HTTP/1.1 200"), "{health}");
    assert!(
        session.list().is_empty(),
        "a refused request admits nothing"
    );
    session.request_quit();
    session.wait().expect("drains");
    std::fs::remove_dir_all(&root).unwrap();
}
