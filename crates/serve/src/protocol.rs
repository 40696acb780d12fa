//! The wire protocol: JSON shapes shared by server and client, so the
//! two sides cannot drift apart.
//!
//! `POST /v1/scan` request:
//!
//! ```json
//! {"model": "prod",
//!  "columns": [{"header": "date", "values": ["2011-01-01", "2011/01/02"]}]}
//! ```
//!
//! Optional ensemble fields: `"detectors": ["autodetect", "fregex"]`
//! routes the scan through the multi-detector engine (an unknown name is
//! a 400 carrying the offending name), and `"merge": "vote:2"` picks the
//! merge policy (`union` when absent; `"merge"` without `"detectors"` is
//! a 400). Ensemble responses add an `"ensemble"` section with the merge
//! policy and per-detector lanes; their findings carry an empty
//! `witness` and a zero `score` (rank-pooled confidences have no single
//! witnessing pair).
//!
//! Response:
//!
//! ```json
//! {"model": "prod", "generation": 1,
//!  "findings": [{"column": 0, "header": "date", "suspect": "2011/01/02",
//!                "witness": "2011-01-01", "confidence": 0.97, "score": -0.62}],
//!  "columns": [{"index": 0, "header": "date", "values_scored": 2, "findings": 1}]}
//! ```
//!
//! Errors are `{"error": "<message>"}` with a 4xx/5xx status.

use crate::json::Json;
use adt_core::{ColumnSummary, DetectorLane, TableFinding};
use adt_corpus::{Column, SourceTag};

/// A parsed scan request.
#[derive(Debug)]
pub struct ScanRequest {
    /// Requested model name; `None` selects the registry default.
    pub model: Option<String>,
    /// Columns to scan, in request order.
    pub columns: Vec<Column>,
    /// Detector set for an ensemble scan; `None` means the plain
    /// single-model scan.
    pub detectors: Option<Vec<String>>,
    /// Merge policy spelling (`union`, `vote:k`); only meaningful
    /// alongside `detectors`.
    pub merge: Option<String>,
    /// Opt-in learning tap: after the scan, the columns are also queued
    /// for the server's online learner. Requires a learn-enabled server.
    pub learn: bool,
}

/// One finding on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct WireFinding {
    /// Column index within the request.
    pub column: usize,
    /// The request column's header, when given.
    pub header: Option<String>,
    /// The value predicted to be an error.
    pub suspect: String,
    /// The in-column value it clashes with.
    pub witness: String,
    /// Confidence `Q` of the witnessing pair.
    pub confidence: f64,
    /// Most negative firing NPMI score.
    pub score: f64,
}

/// Per-column outcome on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct WireColumn {
    /// Column index within the request.
    pub index: usize,
    /// Header echoed back.
    pub header: Option<String>,
    /// Distinct values scored.
    pub values_scored: u64,
    /// Finding count for the column.
    pub findings: usize,
}

/// One detector's instrumentation lane on the wire (ensemble scans).
#[derive(Debug, Clone, PartialEq)]
pub struct WireDetectorLane {
    /// Detector display name.
    pub name: String,
    /// Wall nanoseconds inside this detector's `detect_batch` calls.
    pub wall_nanos: u64,
    /// Predictions emitted before merging.
    pub predictions: u64,
    /// Columns scanned.
    pub columns: u64,
}

/// The ensemble section of a scan response.
#[derive(Debug, Clone, PartialEq)]
pub struct WireEnsemble {
    /// Merge policy spelling (`union`, `vote:2`).
    pub merge: String,
    /// Per-detector lanes in configured order.
    pub detectors: Vec<WireDetectorLane>,
}

/// A parsed scan response.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanResponse {
    /// Model that served the request.
    pub model: String,
    /// Registry generation of that model (bumps on hot-reload).
    pub generation: u64,
    /// Ranked findings (confidence descending).
    pub findings: Vec<WireFinding>,
    /// Per-column outcomes in request order.
    pub columns: Vec<WireColumn>,
    /// Present when the scan ran through the ensemble engine.
    pub ensemble: Option<WireEnsemble>,
}

/// Protocol-level failure: the payload was JSON but not a valid message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError(pub String);

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid message: {}", self.0)
    }
}

impl std::error::Error for ProtocolError {}

fn bad(msg: impl Into<String>) -> ProtocolError {
    ProtocolError(msg.into())
}

/// Decodes the `"columns"` member shared by scan and learn requests,
/// moving each cell's string out of the parsed tree, so a cell is
/// allocated once (by the parser), not copied again here.
fn parse_columns(v: &mut Json) -> Result<Vec<Column>, ProtocolError> {
    let Some(Json::Arr(cols)) = v.get_mut("columns") else {
        return Err(bad("\"columns\" must be an array"));
    };
    let mut columns = Vec::with_capacity(cols.len());
    for (i, col) in cols.iter_mut().enumerate() {
        let Some(Json::Arr(values)) = col.get_mut("values") else {
            return Err(bad(format!("columns[{i}].values must be an array")));
        };
        let mut out = Vec::with_capacity(values.len());
        for val in values {
            match val {
                Json::Str(s) => out.push(std::mem::take(s)),
                _ => return Err(bad(format!("columns[{i}] has a non-string value"))),
            }
        }
        let mut column = Column::new(out, SourceTag::Local);
        column.header = match col.get_mut("header") {
            None | Some(Json::Null) => None,
            Some(Json::Str(s)) => Some(std::mem::take(s)),
            Some(_) => return Err(bad(format!("columns[{i}].header must be a string"))),
        };
        columns.push(column);
    }
    Ok(columns)
}

/// Encodes columns as the `"columns"` member both request shapes share.
fn columns_to_json(columns: &[Column]) -> Json {
    Json::Arr(
        columns
            .iter()
            .map(|c| {
                let mut members = Vec::new();
                if let Some(h) = &c.header {
                    members.push(("header", Json::str(h.clone())));
                }
                members.push((
                    "values",
                    Json::Arr(c.values.iter().map(|v| Json::str(v.clone())).collect()),
                ));
                Json::obj(members)
            })
            .collect(),
    )
}

/// Decodes a scan request body, taking the parsed tree so its strings
/// move into the request instead of being copied.
pub fn parse_scan_request(mut v: Json) -> Result<ScanRequest, ProtocolError> {
    let model = match v.get_mut("model") {
        None | Some(Json::Null) => None,
        Some(Json::Str(s)) => Some(std::mem::take(s)),
        Some(_) => return Err(bad("\"model\" must be a string")),
    };
    let columns = parse_columns(&mut v)?;
    let detectors = match v.get_mut("detectors") {
        None | Some(Json::Null) => None,
        Some(Json::Arr(items)) => {
            let mut names = Vec::with_capacity(items.len());
            for (i, item) in items.iter_mut().enumerate() {
                match item {
                    Json::Str(s) => names.push(std::mem::take(s)),
                    _ => return Err(bad(format!("detectors[{i}] must be a string"))),
                }
            }
            Some(names)
        }
        Some(_) => return Err(bad("\"detectors\" must be an array of strings")),
    };
    let merge = match v.get_mut("merge") {
        None | Some(Json::Null) => None,
        Some(Json::Str(s)) => Some(std::mem::take(s)),
        Some(_) => return Err(bad("\"merge\" must be a string")),
    };
    if merge.is_some() && detectors.is_none() {
        return Err(bad("\"merge\" requires \"detectors\""));
    }
    let learn = match v.get("learn") {
        None | Some(Json::Null) => false,
        Some(Json::Bool(b)) => *b,
        Some(_) => return Err(bad("\"learn\" must be a boolean")),
    };
    Ok(ScanRequest {
        model,
        columns,
        detectors,
        merge,
        learn,
    })
}

/// Encodes a scan request body.
pub fn scan_request_to_json(model: Option<&str>, columns: &[Column]) -> Json {
    scan_request_to_json_full(model, columns, None, None, false)
}

/// Encodes a scan request body with the optional ensemble fields and
/// the learning tap.
pub fn scan_request_to_json_full(
    model: Option<&str>,
    columns: &[Column],
    detectors: Option<&[String]>,
    merge: Option<&str>,
    learn: bool,
) -> Json {
    let mut members = Vec::new();
    if let Some(m) = model {
        members.push(("model", Json::str(m)));
    }
    members.push(("columns", columns_to_json(columns)));
    if let Some(names) = detectors {
        members.push((
            "detectors",
            Json::Arr(names.iter().map(|n| Json::str(n.clone())).collect()),
        ));
    }
    if let Some(m) = merge {
        members.push(("merge", Json::str(m)));
    }
    if learn {
        members.push(("learn", Json::Bool(true)));
    }
    Json::obj(members)
}

/// Decodes a `POST /v1/learn` request body: just columns, moved out of
/// the parsed tree.
pub fn parse_learn_request(mut v: Json) -> Result<Vec<Column>, ProtocolError> {
    parse_columns(&mut v)
}

/// Encodes a `POST /v1/learn` request body.
pub fn learn_request_to_json(columns: &[Column]) -> Json {
    Json::obj(vec![("columns", columns_to_json(columns))])
}

/// Encodes the `202` learn response: how many columns were queued.
pub fn learn_response_to_json(accepted: u64) -> Json {
    Json::obj(vec![
        ("status", Json::str("queued")),
        ("accepted", Json::num(accepted as f64)),
    ])
}

/// Decodes the learn response (the client side); returns the accepted
/// column count.
pub fn parse_learn_response(v: &Json) -> Result<u64, ProtocolError> {
    if v.get("status").and_then(Json::as_str) != Some("queued") {
        return Err(bad("\"status\" must be \"queued\""));
    }
    v.get("accepted")
        .and_then(Json::as_u64)
        .ok_or_else(|| bad("\"accepted\" must be an integer"))
}

fn opt_str(v: Option<&Json>) -> Option<String> {
    v.and_then(Json::as_str).map(str::to_string)
}

/// Encodes a scan response from engine output.
pub fn scan_response_to_json(
    model: &str,
    generation: u64,
    findings: &[TableFinding],
    columns: &[ColumnSummary],
) -> Json {
    scan_response_to_json_full(model, generation, findings, columns, None)
}

/// Encodes a scan response, optionally with the ensemble section
/// (merge-policy spelling plus the engine's per-detector lanes).
pub fn scan_response_to_json_full(
    model: &str,
    generation: u64,
    findings: &[TableFinding],
    columns: &[ColumnSummary],
    ensemble: Option<(&str, &[DetectorLane])>,
) -> Json {
    let findings = findings
        .iter()
        .map(|f| {
            Json::obj(vec![
                ("column", Json::num(f.column_index as f64)),
                (
                    "header",
                    f.column_header
                        .as_ref()
                        .map_or(Json::Null, |h| Json::str(h.clone())),
                ),
                ("suspect", Json::str(f.finding.suspect.clone())),
                ("witness", Json::str(f.finding.witness.clone())),
                ("confidence", Json::num(f.finding.confidence)),
                ("score", Json::num(f.finding.score)),
            ])
        })
        .collect();
    let columns = columns
        .iter()
        .map(|c| {
            Json::obj(vec![
                ("index", Json::num(c.index as f64)),
                (
                    "header",
                    c.header
                        .as_ref()
                        .map_or(Json::Null, |h| Json::str(h.clone())),
                ),
                ("values_scored", Json::num(c.values_scored as f64)),
                ("findings", Json::num(c.num_findings as f64)),
            ])
        })
        .collect();
    let mut members = vec![
        ("model", Json::str(model)),
        ("generation", Json::num(generation as f64)),
        ("findings", Json::Arr(findings)),
        ("columns", Json::Arr(columns)),
    ];
    if let Some((merge, lanes)) = ensemble {
        let lanes = lanes
            .iter()
            .map(|l| {
                Json::obj(vec![
                    ("name", Json::str(l.name.clone())),
                    ("wall_nanos", Json::num(l.wall_nanos as f64)),
                    ("predictions", Json::num(l.predictions as f64)),
                    ("columns", Json::num(l.columns as f64)),
                ])
            })
            .collect();
        members.push((
            "ensemble",
            Json::obj(vec![
                ("merge", Json::str(merge)),
                ("detectors", Json::Arr(lanes)),
            ]),
        ));
    }
    Json::obj(members)
}

/// Decodes a scan response (the client side).
pub fn parse_scan_response(v: &Json) -> Result<ScanResponse, ProtocolError> {
    let model = v
        .get("model")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("\"model\" must be a string"))?
        .to_string();
    let generation = v.get("generation").and_then(Json::as_u64).unwrap_or(0);
    let mut findings = Vec::new();
    for f in v
        .get("findings")
        .and_then(Json::as_arr)
        .ok_or_else(|| bad("\"findings\" must be an array"))?
    {
        findings.push(WireFinding {
            column: f
                .get("column")
                .and_then(Json::as_u64)
                .ok_or_else(|| bad("finding.column must be an integer"))?
                as usize,
            header: opt_str(f.get("header")),
            suspect: opt_str(f.get("suspect")).ok_or_else(|| bad("finding.suspect missing"))?,
            witness: opt_str(f.get("witness")).ok_or_else(|| bad("finding.witness missing"))?,
            confidence: f
                .get("confidence")
                .and_then(Json::as_f64)
                .ok_or_else(|| bad("finding.confidence missing"))?,
            score: f
                .get("score")
                .and_then(Json::as_f64)
                .ok_or_else(|| bad("finding.score missing"))?,
        });
    }
    let mut columns = Vec::new();
    for c in v
        .get("columns")
        .and_then(Json::as_arr)
        .ok_or_else(|| bad("\"columns\" must be an array"))?
    {
        columns.push(WireColumn {
            index: c
                .get("index")
                .and_then(Json::as_u64)
                .ok_or_else(|| bad("column.index must be an integer"))? as usize,
            header: opt_str(c.get("header")),
            values_scored: c.get("values_scored").and_then(Json::as_u64).unwrap_or(0),
            findings: c.get("findings").and_then(Json::as_u64).unwrap_or(0) as usize,
        });
    }
    let ensemble = match v.get("ensemble") {
        None | Some(Json::Null) => None,
        Some(e) => {
            let merge = e
                .get("merge")
                .and_then(Json::as_str)
                .ok_or_else(|| bad("ensemble.merge must be a string"))?
                .to_string();
            let mut lanes = Vec::new();
            for l in e
                .get("detectors")
                .and_then(Json::as_arr)
                .ok_or_else(|| bad("ensemble.detectors must be an array"))?
            {
                lanes.push(WireDetectorLane {
                    name: opt_str(l.get("name"))
                        .ok_or_else(|| bad("ensemble detector lane is missing a name"))?,
                    wall_nanos: l.get("wall_nanos").and_then(Json::as_u64).unwrap_or(0),
                    predictions: l.get("predictions").and_then(Json::as_u64).unwrap_or(0),
                    columns: l.get("columns").and_then(Json::as_u64).unwrap_or(0),
                });
            }
            Some(WireEnsemble {
                merge,
                detectors: lanes,
            })
        }
    };
    Ok(ScanResponse {
        model,
        generation,
        findings,
        columns,
        ensemble,
    })
}

/// Encodes an error body.
pub fn error_to_json(message: &str) -> Json {
    Json::obj(vec![("error", Json::str(message))])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use adt_core::ColumnFinding;

    #[test]
    fn scan_request_roundtrip() {
        let mut col = Column::from_strs(&["a", "b"], SourceTag::Local);
        col.header = Some("h".into());
        let noheader = Column::from_strs(&["c"], SourceTag::Local);
        let json = scan_request_to_json(Some("m"), &[col.clone(), noheader.clone()]);
        let back = parse_scan_request(parse(&json.to_text()).unwrap()).unwrap();
        assert_eq!(back.model.as_deref(), Some("m"));
        assert_eq!(back.columns, vec![col, noheader]);
    }

    #[test]
    fn scan_request_validation() {
        // Each malformed body, with the message it must report. A column
        // is checked values first, then header.
        for (bad, message) in [
            (r#"{"columns": "nope"}"#, r#""columns" must be an array"#),
            (
                r#"{"columns": [{"values": [1]}]}"#,
                "columns[0] has a non-string value",
            ),
            (
                r#"{"columns": [{"values": "x"}]}"#,
                "columns[0].values must be an array",
            ),
            (
                r#"{"columns": [{"header": 7, "values": ["a", 1]}]}"#,
                "columns[0] has a non-string value",
            ),
            (
                r#"{"columns": [{"header": "h", "values": []}, {"values": ["a", 1], "header": 7}]}"#,
                "columns[1] has a non-string value",
            ),
            (
                r#"{"model": 3, "columns": []}"#,
                r#""model" must be a string"#,
            ),
            (
                r#"{"model": 3, "columns": "nope"}"#,
                r#""model" must be a string"#,
            ),
            (
                r#"{"columns": [{"header": [], "values": []}]}"#,
                "columns[0].header must be a string",
            ),
            (
                r#"{"columns": [], "detectors": "autodetect"}"#,
                r#""detectors" must be an array of strings"#,
            ),
            (
                r#"{"columns": [], "detectors": [1]}"#,
                "detectors[0] must be a string",
            ),
            (
                r#"{"columns": [], "merge": 2, "detectors": ["autodetect"]}"#,
                r#""merge" must be a string"#,
            ),
            (
                r#"{"columns": [], "merge": "vote:2"}"#,
                r#""merge" requires "detectors""#,
            ),
            (
                r#"{"columns": [], "learn": "yes"}"#,
                r#""learn" must be a boolean"#,
            ),
            (
                r#"{"columns": [], "learn": 1}"#,
                r#""learn" must be a boolean"#,
            ),
        ] {
            let v = parse(bad).unwrap();
            match parse_scan_request(v) {
                Ok(_) => panic!("accepted {bad}"),
                Err(e) => assert_eq!(e.0, message, "{bad}"),
            }
        }
    }

    /// Mutates valid request bodies byte by byte and feeds every UTF-8
    /// result through the server's decode path: `json::parse`, then
    /// `parse_scan_request` / `parse_learn_request`. Each must return a
    /// typed error or a request — never panic — and a decoded request
    /// must survive re-encoding unchanged.
    #[test]
    fn mutated_request_bodies_decode_or_fail_typed() {
        use adt_rng::prelude::*;
        const CASES: usize = 20_000;
        const BYTES: &[u8] = b"\"\\{}[],:0123456789-+.eEtrufalsn u\x00\x1f\x7f\xc3\xa9";

        let mut dated = Column::from_strs(
            &[
                "2011-01-01",
                "2011/01/02",
                "",
                "say \"hi\"",
                "a\\b",
                "tab\there",
                "é😀",
            ],
            SourceTag::Local,
        );
        dated.header = Some("when \"\\".into());
        let plain = Column::from_strs(&["1", "2", "3,000"], SourceTag::Local);
        let detectors = vec!["autodetect".to_string(), "fregex".to_string()];
        let seeds: Vec<Vec<u8>> = [
            scan_request_to_json(Some("m"), &[dated.clone(), plain.clone()]),
            scan_request_to_json_full(
                None,
                &[dated.clone()],
                Some(&detectors),
                Some("vote:2"),
                true,
            ),
            learn_request_to_json(&[plain, dated]),
        ]
        .iter()
        .map(|j| j.to_text().into_bytes())
        .collect();

        let mut rng = StdRng::seed_from_u64(0xf022_5ca7);
        let mut decoded = 0;
        for case in 0..CASES {
            let mut body = seeds.choose(&mut rng).unwrap().clone();
            for _ in 0..rng.random_range(1..=4usize) {
                let len = body.len();
                let at = rng.random_range(0..=len);
                let byte = if rng.random_bool(0.8) {
                    *BYTES.choose(&mut rng).unwrap()
                } else {
                    rng.random_range(0..=255u8)
                };
                match rng.random_range(0..5u8) {
                    0 if at < len => body[at] = byte,
                    1 => body.insert(at, byte),
                    2 => {
                        let end = (at + rng.random_range(1..=8usize)).min(len);
                        body.drain(at..end);
                    }
                    3 => {
                        let end = (at + rng.random_range(1..=16usize)).min(len);
                        let copy = body[at..end].to_vec();
                        body.splice(at..at, copy);
                    }
                    _ => body.truncate(at),
                }
            }
            let Ok(text) = String::from_utf8(body) else {
                continue;
            };
            let outcome = std::panic::catch_unwind(|| match parse(&text) {
                Err(e) => {
                    assert!(e.offset <= text.len() && !e.message.is_empty(), "{e:?}");
                    0
                }
                Ok(v) => {
                    let learn = parse_learn_request(v.clone()).map(|cols| cols.len());
                    match parse_scan_request(v) {
                        Err(e) => {
                            assert!(!e.0.is_empty());
                            0
                        }
                        Ok(req) => {
                            assert_eq!(learn, Ok(req.columns.len()));
                            let again = scan_request_to_json_full(
                                req.model.as_deref(),
                                &req.columns,
                                req.detectors.as_deref(),
                                req.merge.as_deref(),
                                req.learn,
                            );
                            let back =
                                parse_scan_request(parse(&again.to_text()).unwrap()).unwrap();
                            assert_eq!(back.columns, req.columns);
                            assert_eq!(back.model, req.model);
                            1
                        }
                    }
                }
            });
            match outcome {
                Ok(n) => decoded += n,
                Err(_) => panic!("case {case} panicked on {text:?}"),
            }
        }
        // The loop must reach the request decoder, not stop at the parser.
        assert!(decoded > CASES / 20, "only {decoded} bodies decoded");
    }

    #[test]
    fn ensemble_request_roundtrip() {
        let col = Column::from_strs(&["a", "b"], SourceTag::Local);
        let detectors = vec!["autodetect".to_string(), "fregex".to_string()];
        let json =
            scan_request_to_json_full(Some("m"), &[col], Some(&detectors), Some("vote:2"), false);
        let back = parse_scan_request(parse(&json.to_text()).unwrap()).unwrap();
        assert_eq!(back.detectors.as_deref(), Some(&detectors[..]));
        assert_eq!(back.merge.as_deref(), Some("vote:2"));
        assert!(!back.learn);
    }

    #[test]
    fn learn_tap_flag_roundtrip() {
        let col = Column::from_strs(&["a", "b"], SourceTag::Local);
        let json =
            scan_request_to_json_full(Some("m"), std::slice::from_ref(&col), None, None, true);
        let back = parse_scan_request(parse(&json.to_text()).unwrap()).unwrap();
        assert!(back.learn);
        // The tap is opt-in: plain encoders never emit the member.
        let plain = scan_request_to_json(Some("m"), &[col]).to_text();
        assert!(!plain.contains("learn"), "{plain}");
    }

    #[test]
    fn learn_request_and_response_roundtrip() {
        let mut col = Column::from_strs(&["1", "2"], SourceTag::Local);
        col.header = Some("n".into());
        let json = learn_request_to_json(&[col.clone()]);
        let back = parse_learn_request(parse(&json.to_text()).unwrap()).unwrap();
        assert_eq!(back, vec![col]);

        let resp = learn_response_to_json(17);
        let accepted = parse_learn_response(&parse(&resp.to_text()).unwrap()).unwrap();
        assert_eq!(accepted, 17);
        for bad in [
            r#"{"status": "nope", "accepted": 1}"#,
            r#"{"status": "queued"}"#,
        ] {
            assert!(parse_learn_response(&parse(bad).unwrap()).is_err(), "{bad}");
        }
    }

    #[test]
    fn scan_response_roundtrip() {
        let findings = vec![TableFinding {
            column_index: 0,
            column_header: Some("h".into()),
            finding: ColumnFinding {
                suspect: "2011/01/02".into(),
                witness: "2011-01-01".into(),
                confidence: 0.97,
                score: -0.62,
            },
        }];
        let columns = vec![ColumnSummary {
            index: 0,
            header: Some("h".into()),
            values_scored: 2,
            num_findings: 1,
        }];
        let json = scan_response_to_json("m", 3, &findings, &columns);
        let back = parse_scan_response(&parse(&json.to_text()).unwrap()).unwrap();
        assert_eq!(back.model, "m");
        assert_eq!(back.generation, 3);
        assert_eq!(back.findings[0].suspect, "2011/01/02");
        assert_eq!(back.findings[0].confidence, 0.97);
        assert_eq!(back.columns[0].values_scored, 2);
        assert_eq!(back.ensemble, None);
    }

    #[test]
    fn ensemble_response_roundtrip() {
        let lanes = vec![
            DetectorLane {
                name: "Auto-Detect".into(),
                wall_nanos: 1200,
                predictions: 3,
                columns: 2,
            },
            DetectorLane {
                name: "F-Regex".into(),
                wall_nanos: 80,
                predictions: 1,
                columns: 2,
            },
        ];
        let json = scan_response_to_json_full("m", 1, &[], &[], Some(("vote:2", &lanes)));
        let back = parse_scan_response(&parse(&json.to_text()).unwrap()).unwrap();
        let ens = back.ensemble.expect("ensemble section missing");
        assert_eq!(ens.merge, "vote:2");
        assert_eq!(ens.detectors.len(), 2);
        assert_eq!(ens.detectors[0].name, "Auto-Detect");
        assert_eq!(ens.detectors[0].wall_nanos, 1200);
        assert_eq!(ens.detectors[1].predictions, 1);
    }
}
