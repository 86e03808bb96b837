//! Answer checks. The oracle runs the analysis library in-process — no HTTP,
//! no request decoding, no caches, no response rendering — and on systems
//! up to `KARP_MAX_BLOCKS` blocks with a different MCM engine (Karp) than
//! the service's default.

use std::collections::HashMap;

use lis_core::{
    ideal_mst_with, parse_netlist, practical_mst_with, to_netlist, ChannelId, LisModel, LisSystem,
    McmEngine,
};
use lis_server::Json;
use marked_graph::{PlaceId, Ratio, TransitionId};

const KARP_MAX_BLOCKS: usize = 250;

fn engine_for(sys: &LisSystem) -> McmEngine {
    if sys.block_count() <= KARP_MAX_BLOCKS {
        McmEngine::Karp
    } else {
        McmEngine::default()
    }
}

fn ratio_of(json: &Json, field: &str) -> Result<Ratio, String> {
    let r = json.get(field).ok_or_else(|| format!("missing {field}"))?;
    let num = r.get("num").and_then(Json::as_f64).ok_or("ratio num")?;
    let den = r.get("den").and_then(Json::as_f64).ok_or("ratio den")?;
    Ok(Ratio::new(num as i64, den as i64))
}

fn expect_eq(what: &str, got: Ratio, want: Ratio) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: service {got}, oracle {want}"))
    }
}

fn parse_body(body: &[u8]) -> Result<Json, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    Json::parse(text).map_err(|e| format!("body is not JSON: {e}"))
}

/// The oracle's ideal and practical MST.
fn oracle_msts(sys: &LisSystem) -> (Ratio, Ratio) {
    let engine = engine_for(sys);
    let ideal = ideal_mst_with(sys, engine);
    let practical = practical_mst_with(sys, engine).min(ideal);
    (ideal, practical)
}

/// Checks an `/analyze` body: ideal and practical MST against the oracle;
/// the critical cycle present exactly when degraded, and a closed walk of
/// the doubled model whose mean is the practical MST; a schedule, when
/// present, running at that rate.
pub fn check_analyze(netlist: &str, body: &[u8]) -> Result<(), String> {
    let sys = parse_netlist(netlist).map_err(|e| e.to_string())?;
    let json = parse_body(body)?;
    let (ideal, practical) = oracle_msts(&sys);
    expect_eq("ideal_mst", ratio_of(&json, "ideal_mst")?, ideal)?;
    expect_eq(
        "practical_mst",
        ratio_of(&json, "practical_mst")?,
        practical,
    )?;
    match json.get("critical_cycle") {
        Some(Json::Null) | None if practical == ideal => {}
        Some(Json::Str(cycle)) if practical < ideal => {
            let mean = walk_mean(&sys, cycle)?;
            expect_eq("critical_cycle mean", mean, practical)?;
        }
        other => {
            return Err(format!(
                "critical_cycle {other:?} with degraded={}",
                practical < ideal
            ))
        }
    }
    if let Some(schedule) = json.get("schedule") {
        expect_eq(
            "schedule throughput",
            ratio_of(schedule, "throughput")?,
            practical,
        )?;
    }
    Ok(())
}

/// The least cycle mean over every closed walk of the doubled model that
/// visits the hops named in `cycle` (` -> `-separated transition names,
/// `*` marking a backedge place into the hop).
fn walk_mean(sys: &LisSystem, cycle: &str) -> Result<Ratio, String> {
    let model = LisModel::doubled(sys);
    let g = model.graph();
    let mut by_name: HashMap<&str, Vec<TransitionId>> = HashMap::new();
    for t in g.transition_ids() {
        by_name.entry(g.transition_name(t)).or_default().push(t);
    }
    let hops: Vec<(&str, bool)> = cycle
        .split(" -> ")
        .map(|h| match h.strip_suffix('*') {
            Some(name) => (name, true),
            None => (h, false),
        })
        .collect();
    let candidates = |name: &str| -> Result<&Vec<TransitionId>, String> {
        by_name
            .get(name)
            .ok_or_else(|| format!("critical_cycle names unknown hop {name:?}"))
    };
    let k = hops.len();
    let mut best: Option<(u64, u64)> = None;
    for &start in candidates(hops[k - 1].0)? {
        // dp: cheapest token count reaching each candidate of hop i.
        let mut dp: Vec<(TransitionId, u64, u64)> = vec![(start, 0, 0)];
        for &(name, backedge) in &hops {
            let mut next: Vec<(TransitionId, u64, u64)> = Vec::new();
            for &t in candidates(name)? {
                let mut cell: Option<(u64, u64)> = None;
                for &(u, tokens, delay) in &dp {
                    for &p in g.outputs(u) {
                        let p: PlaceId = p;
                        if g.target(p) == t && model.is_backedge(p) == backedge {
                            let cand = (tokens + g.tokens(p), delay + g.delay(t));
                            if cell.is_none_or(|c| cand.0 < c.0) {
                                cell = Some(cand);
                            }
                        }
                    }
                }
                if let Some((tok, del)) = cell {
                    next.push((t, tok, del));
                }
            }
            dp = next;
        }
        if let Some(&(_, tokens, delay)) = dp.iter().find(|&&(t, _, _)| t == start) {
            if best.is_none_or(|b| tokens * b.1 < b.0 * delay) {
                best = Some((tokens, delay));
            }
        }
    }
    let (tokens, delay) = best.ok_or("critical_cycle is not a closed walk of d[G]")?;
    Ok(Ratio::new(tokens as i64, delay as i64))
}

fn channel(sys: &LisSystem, entry: &Json) -> Result<ChannelId, String> {
    let idx = entry
        .get("channel")
        .and_then(Json::as_u64)
        .ok_or("entry without channel")? as usize;
    sys.channel_ids()
        .nth(idx)
        .ok_or_else(|| format!("channel {idx} out of range"))
}

/// Checks a `/qs` body: the target is the oracle's ideal MST, and growing
/// the named queues by the extra slots restores it.
pub fn check_qs(netlist: &str, body: &[u8]) -> Result<(), String> {
    let sys = parse_netlist(netlist).map_err(|e| e.to_string())?;
    let json = parse_body(body)?;
    let (ideal, practical) = oracle_msts(&sys);
    expect_eq("target_mst", ratio_of(&json, "target_mst")?, ideal)?;
    expect_eq(
        "practical_before",
        ratio_of(&json, "practical_before")?,
        practical,
    )?;
    let mut resized = sys.clone();
    for entry in json
        .get("extra_tokens")
        .and_then(Json::as_arr)
        .ok_or("extra_tokens")?
    {
        let c = channel(&sys, entry)?;
        let w = entry
            .get("extra_slots")
            .and_then(Json::as_u64)
            .ok_or("extra_slots")?;
        resized.grow_queue(c, w);
    }
    let (_, after) = oracle_msts(&resized);
    expect_eq("practical MST after applying extra_tokens", after, ideal)
}

/// Checks an `/insert` body: applying the placements gives the reported
/// ideal and practical MST.
pub fn check_insert(netlist: &str, body: &[u8]) -> Result<(), String> {
    let sys = parse_netlist(netlist).map_err(|e| e.to_string())?;
    let json = parse_body(body)?;
    let mut placed = sys.clone();
    for entry in json
        .get("placements")
        .and_then(Json::as_arr)
        .ok_or("placements")?
    {
        let c = channel(&sys, entry)?;
        let n = entry
            .get("stations")
            .and_then(Json::as_u64)
            .ok_or("stations")?;
        for _ in 0..n {
            placed.add_relay_station(c);
        }
    }
    let (ideal, practical) = oracle_msts(&placed);
    expect_eq("ideal_mst", ratio_of(&json, "ideal_mst")?, ideal)?;
    expect_eq(
        "practical_mst",
        ratio_of(&json, "practical_mst")?,
        practical,
    )
}

/// Checks one answer by route.
/// Whether a `/qs` answer is the service's refusal to size queues because
/// cycle enumeration passed its limit: the known queue-sizing defect (it
/// enumerates every cycle before it filters by deficit), answered as a
/// typed 422 rather than a wrong result.
pub fn is_cycle_limit_refusal(route: &str, status: u16, body: &[u8]) -> bool {
    const REFUSAL: &str = "{\"error\":{\"kind\":\"analysis_error\",\"message\":\"analysis failed: \
                           cycle enumeration exceeded the limit of 1000000 cycles\"}}";
    route == "qs" && status == 422 && body == REFUSAL.as_bytes()
}

pub fn check(route: &str, netlist: &str, body: &[u8]) -> Result<(), String> {
    match route {
        "analyze" => check_analyze(netlist, body),
        "qs" => check_qs(netlist, body),
        "insert" => check_insert(netlist, body),
        other => Err(format!("no oracle for {other}")),
    }
}

/// The raw bytes of the JSON value of `"field":` inside one NDJSON line.
pub fn raw_field<'a>(line: &'a str, field: &str) -> Option<&'a str> {
    let key = format!("\"{field}\":");
    let start = line.find(&key)? + key.len();
    let bytes = line.as_bytes();
    let mut i = start;
    while bytes.get(i)? == &b' ' {
        i += 1;
    }
    let (mut depth, mut in_str, mut esc) = (0i32, false, false);
    for (j, &b) in bytes.iter().enumerate().skip(i) {
        if in_str {
            match b {
                _ if esc => esc = false,
                b'\\' => esc = true,
                b'"' => in_str = false,
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => in_str = true,
            b'{' | b'[' => depth += 1,
            b'}' | b']' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&line[i..=j]);
                }
            }
            _ => {}
        }
    }
    None
}

/// The design point of one sweep row as a standalone netlist: the base with
/// the row's stations and capacities applied.
pub fn row_netlist(base: &str, row: &Json) -> Result<String, String> {
    let mut sys = parse_netlist(base).map_err(|e| e.to_string())?;
    let pristine = sys.clone();
    for entry in row
        .get("stations")
        .and_then(Json::as_arr)
        .ok_or("row stations")?
    {
        let c = channel(&pristine, entry)?;
        let n = entry.get("add").and_then(Json::as_u64).ok_or("row add")?;
        for _ in 0..n {
            sys.add_relay_station(c);
        }
    }
    for entry in row
        .get("capacities")
        .and_then(Json::as_arr)
        .ok_or("row capacities")?
    {
        let c = channel(&pristine, entry)?;
        let q = entry
            .get("capacity")
            .and_then(Json::as_u64)
            .ok_or("row capacity")?;
        sys.set_queue_capacity(c, q).map_err(|e| e.to_string())?;
    }
    Ok(to_netlist(&sys))
}
