//! A SPICE-style netlist parser.
//!
//! Parses the classic card format into a [`Circuit`] plus analysis
//! directives, so decks can be run without writing Rust:
//!
//! ```text
//! * RC low-pass
//! V1 in 0 PULSE(0 1.2 1n 50p 50p 2n 4n)
//! R1 in out 1k
//! C1 out 0 10f
//! .tran 8n
//! .end
//! ```
//!
//! Supported cards: `R`, `C`, `L`, `V`, `I` (DC / `PULSE(...)` /
//! `PWL(...)` / `SIN(...)` / `EXP(...)`), `E` (VCVS), `G` (VCCS), and device cards
//! (`M`/`X`) resolved through a caller-supplied [`DeviceFactory`] — the
//! `nemscmos` core crate registers the calibrated 90 nm MOSFET and NEMS
//! models. `.MODEL` cards define deck-local aliases of factory models
//! with default parameters (`.MODEL fast nmos90 W=2u`); instance
//! parameters override the card's. Directives: `.op`, `.tran`, `.dc`,
//! `.ac`, `.ic`, `.model`, `.end`.
//! Engineering suffixes (`f p n u m k meg g t`) and `+` continuation
//! lines follow SPICE conventions; `*` and `;` start comments.

use std::collections::HashMap;

use crate::analysis::dc_sweep::linear_sweep_len;
use crate::circuit::Circuit;
use crate::device::Device;
use crate::element::{NodeId, SourceRef};
use crate::waveform::Waveform;
use crate::{Result, SpiceError};

/// Why a [`DeviceFactory`] refused a device card.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FactoryError {
    /// The factory knows no model of this name.
    UnknownModel,
    /// The model is known but the card cannot build it; the reason names
    /// the terminal count or the parameter at fault.
    Rejected(String),
}

/// Creates nonlinear devices for `M`/`X` cards.
///
/// `params` holds the parsed `KEY=value` assignments (keys upper-cased,
/// values suffix-expanded).
pub trait DeviceFactory {
    /// Builds a device for `model` with the given instance `name` and
    /// terminal `nodes`.
    ///
    /// # Errors
    ///
    /// [`FactoryError::UnknownModel`] if the model is unknown, and
    /// [`FactoryError::Rejected`] with the reason if the card's terminals
    /// or parameters do not fit it.
    fn make(
        &self,
        name: &str,
        model: &str,
        nodes: &[NodeId],
        params: &HashMap<String, f64>,
    ) -> std::result::Result<Box<dyn Device>, FactoryError>;
}

/// A factory that knows no device models (linear-only decks).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoDevices;

impl DeviceFactory for NoDevices {
    fn make(
        &self,
        _: &str,
        _: &str,
        _: &[NodeId],
        _: &HashMap<String, f64>,
    ) -> std::result::Result<Box<dyn Device>, FactoryError> {
        Err(FactoryError::UnknownModel)
    }
}

/// An analysis directive parsed from the deck.
#[derive(Debug, Clone, PartialEq)]
pub enum Directive {
    /// `.op`
    Op,
    /// `.tran [tstep] tstop` (tstep accepted and ignored; the engine is
    /// adaptive).
    Tran {
        /// Stop time (s).
        tstop: f64,
    },
    /// `.dc SRCNAME start stop step`
    Dc {
        /// Name of the swept voltage source.
        source: String,
        /// Sweep start (V).
        start: f64,
        /// Sweep stop (V).
        stop: f64,
        /// Sweep increment (V).
        step: f64,
    },
    /// `.ac dec NPOINTS fstart fstop` driven by the first source in the deck.
    Ac {
        /// Points per decade.
        points_per_decade: usize,
        /// Start frequency (Hz).
        f_start: f64,
        /// Stop frequency (Hz).
        f_stop: f64,
    },
}

/// The result of parsing a deck: the circuit, its directives, and name
/// lookup tables for probing.
pub struct ParsedDeck {
    /// The elaborated circuit.
    pub circuit: Circuit,
    /// Directives in deck order.
    pub directives: Vec<Directive>,
    /// Voltage sources by (upper-cased) instance name.
    pub sources: HashMap<String, SourceRef>,
    /// Node name → id map for every node mentioned in the deck.
    pub nodes: HashMap<String, NodeId>,
}

impl std::fmt::Debug for ParsedDeck {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParsedDeck")
            .field("directives", &self.directives)
            .field("num_nodes", &self.nodes.len())
            .field("num_sources", &self.sources.len())
            .finish()
    }
}

/// Largest frequency grid an `.ac` directive may request, counted over the
/// whole sweep as [`log_sweep`] builds it (ten decades at 10 000 points per
/// decade). A deck asking for more is rejected before anything is
/// allocated.
///
/// [`log_sweep`]: crate::analysis::ac::log_sweep
pub const MAX_AC_POINTS: usize = 100_000;

/// Largest voltage grid a `.dc` directive may request, counted as
/// [`linear_sweep`] builds it. A deck asking for more is rejected before
/// anything is allocated.
///
/// [`linear_sweep`]: crate::analysis::dc_sweep::linear_sweep
pub const MAX_DC_POINTS: usize = 100_000;

/// Largest number of cards a deck may flatten to once every `.subckt`
/// instance is expanded. Expansion is refused as soon as it would produce
/// one more, so a deck whose instances multiply at every level cannot
/// exhaust memory.
pub const MAX_EXPANDED_CARDS: usize = 100_000;

/// Parses a numeric token with SPICE engineering suffixes
/// (`10k`, `2.5u`, `1meg`, `50p`, trailing unit letters ignored:
/// `10pF` → `1e-11`).
///
/// # Errors
///
/// Returns [`SpiceError::InvalidCircuit`] if no leading number exists.
pub fn parse_value(token: &str) -> Result<f64> {
    let t = token.trim().to_ascii_lowercase();
    let num_end = t
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e'))
        .unwrap_or(t.len());
    // Careful: 'e' may be an exponent or the end of the mantissa; try the
    // longest numeric prefix that parses.
    let mut best: Option<(f64, &str)> = None;
    for end in (1..=num_end).rev() {
        if let Ok(v) = t[..end].parse::<f64>() {
            best = Some((v, &t[end..]));
            break;
        }
    }
    let (base, rest) = best
        .ok_or_else(|| SpiceError::InvalidCircuit(format!("cannot parse number from '{token}'")))?;
    let mult = if rest.starts_with("meg") {
        1e6
    } else {
        match rest.chars().next() {
            Some('t') => 1e12,
            Some('g') => 1e9,
            Some('k') => 1e3,
            Some('m') => 1e-3,
            Some('u') | Some('µ') => 1e-6,
            Some('n') => 1e-9,
            Some('p') => 1e-12,
            Some('f') => 1e-15,
            _ => 1.0,
        }
    };
    Ok(base * mult)
}

fn parse_waveform(tokens: &[String]) -> Result<Waveform> {
    if tokens.is_empty() {
        return Ok(Waveform::dc(0.0));
    }
    let head = tokens[0].to_ascii_uppercase();
    let args_of = |prefix: &str| -> Result<Vec<f64>> {
        // Re-join and strip "PREFIX(" ... ")".
        let joined = tokens.join(" ");
        let upper = joined.to_ascii_uppercase();
        let open = upper
            .find('(')
            .ok_or_else(|| SpiceError::InvalidCircuit(format!("{prefix} source needs '(args)'")))?;
        let close = upper
            .rfind(')')
            .filter(|&close| close > open)
            .ok_or_else(|| SpiceError::InvalidCircuit(format!("{prefix} source missing ')'")))?;
        joined[open + 1..close]
            .split([' ', ','])
            .filter(|s| !s.is_empty())
            .map(parse_value)
            .collect()
    };
    if head.starts_with("PULSE") {
        let a = args_of("PULSE")?;
        if a.len() != 7 {
            return Err(SpiceError::InvalidCircuit(format!(
                "PULSE needs 7 arguments (v1 v2 delay rise fall width period), got {}",
                a.len()
            )));
        }
        return Ok(Waveform::pulse(a[0], a[1], a[2], a[3], a[4], a[5], a[6]));
    }
    if head.starts_with("PWL") {
        let a = args_of("PWL")?;
        if a.len() < 2 || a.len() % 2 != 0 {
            return Err(SpiceError::InvalidCircuit(
                "PWL needs an even number of t/v arguments".into(),
            ));
        }
        let pts = a.chunks(2).map(|c| (c[0], c[1])).collect();
        return Waveform::pwl(pts);
    }
    if head.starts_with("SIN") {
        let a = args_of("SIN")?;
        if a.len() < 3 {
            return Err(SpiceError::InvalidCircuit(
                "SIN needs at least (offset ampl freq)".into(),
            ));
        }
        return Ok(Waveform::Sin {
            offset: a[0],
            ampl: a[1],
            freq: a[2],
            delay: a.get(3).copied().unwrap_or(0.0),
        });
    }
    if head.starts_with("EXP") {
        let a = args_of("EXP")?;
        if a.len() != 6 {
            return Err(SpiceError::InvalidCircuit(
                "EXP needs 6 arguments (v1 v2 td1 tau1 td2 tau2)".into(),
            ));
        }
        if !(a[3] > 0.0 && a[5] > 0.0 && a[4] >= a[2]) {
            return Err(SpiceError::InvalidCircuit(
                "EXP needs positive time constants and td2 >= td1".into(),
            ));
        }
        return Ok(Waveform::exp(a[0], a[1], a[2], a[3], a[4], a[5]));
    }
    if head == "DC" {
        let v = tokens
            .get(1)
            .ok_or_else(|| SpiceError::InvalidCircuit("DC source needs a value".into()))?;
        return Ok(Waveform::dc(parse_value(v)?));
    }
    // Bare value.
    Ok(Waveform::dc(parse_value(&tokens[0])?))
}

/// Joins continuation lines and strips comments.
fn logical_lines(text: &str) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for raw in text.lines() {
        let line = match raw.find(';') {
            Some(k) => &raw[..k],
            None => raw,
        };
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('*') {
            continue;
        }
        if let Some(cont) = trimmed.strip_prefix('+') {
            if let Some(last) = out.last_mut() {
                last.push(' ');
                last.push_str(cont);
                continue;
            }
        }
        out.push(trimmed.to_string());
    }
    out
}

/// A parsed `.subckt` definition.
#[derive(Debug, Clone)]
struct Subckt {
    pins: Vec<String>,
    body: Vec<String>,
}

/// Splits the deck into subcircuit definitions and top-level lines.
fn extract_subckts(lines: Vec<String>) -> Result<(HashMap<String, Subckt>, Vec<String>)> {
    let mut defs: HashMap<String, Subckt> = HashMap::new();
    let mut top = Vec::new();
    let mut current: Option<(String, Subckt)> = None;
    for line in lines {
        let first = line
            .split_whitespace()
            .next()
            .unwrap_or("")
            .to_ascii_uppercase();
        if first == ".SUBCKT" {
            if current.is_some() {
                return Err(SpiceError::InvalidCircuit(
                    "nested .subckt definitions are not supported".into(),
                ));
            }
            let tokens: Vec<&str> = line.split_whitespace().collect();
            if tokens.len() < 3 {
                return Err(SpiceError::InvalidCircuit(
                    ".subckt needs a name and at least one pin".into(),
                ));
            }
            current = Some((
                tokens[1].to_ascii_lowercase(),
                Subckt {
                    pins: tokens[2..].iter().map(|p| p.to_ascii_lowercase()).collect(),
                    body: Vec::new(),
                },
            ));
        } else if first == ".ENDS" {
            let (name, def) = current.take().ok_or_else(|| {
                SpiceError::InvalidCircuit(".ends without a matching .subckt".into())
            })?;
            defs.insert(name, def);
        } else if let Some((_, def)) = current.as_mut() {
            def.body.push(line);
        } else {
            top.push(line);
        }
    }
    if let Some((name, _)) = current {
        return Err(SpiceError::InvalidCircuit(format!(
            ".subckt {name} missing .ends"
        )));
    }
    Ok((defs, top))
}

/// Returns the token index range holding node names for an element card.
fn node_token_range(card_kind: char, tokens: &[String]) -> std::ops::Range<usize> {
    match card_kind {
        'R' | 'C' | 'L' | 'V' | 'I' => 1..3.min(tokens.len()),
        'E' | 'G' => 1..5.min(tokens.len()),
        'M' | 'X' => {
            let split = tokens
                .iter()
                .position(|t| t.contains('='))
                .unwrap_or(tokens.len());
            1..split.saturating_sub(1).max(1)
        }
        _ => 1..1,
    }
}

/// Expands every `X` card that references a `.subckt` until only
/// primitive cards remain.
fn expand_subckts(defs: &HashMap<String, Subckt>, top: Vec<String>) -> Result<Vec<String>> {
    let mut lines = top;
    // Every card of a pass goes through here, counted before it is kept.
    let push = |expanded: &mut Vec<String>, card: String| -> Result<()> {
        if expanded.len() == MAX_EXPANDED_CARDS {
            return Err(SpiceError::InvalidCircuit(format!(
                "subcircuit expansion exceeds {MAX_EXPANDED_CARDS} cards"
            )));
        }
        expanded.push(card);
        Ok(())
    };
    for _depth in 0..32 {
        let mut expanded = Vec::new();
        let mut changed = false;
        for line in lines {
            let tokens: Vec<String> = line.split_whitespace().map(|s| s.to_string()).collect();
            let card = tokens[0].to_ascii_uppercase();
            let is_x = card.starts_with('X');
            // The "model" of an X card is the last bare token after the
            // instance name.
            let split = tokens
                .iter()
                .position(|t| t.contains('='))
                .unwrap_or(tokens.len());
            if is_x && split < 2 {
                return Err(SpiceError::InvalidCircuit(format!(
                    "'{line}': subcircuit instance needs nodes and a subcircuit name"
                )));
            }
            let model = tokens
                .get(split.wrapping_sub(1))
                .map(|m| m.to_ascii_lowercase());
            let def = if is_x {
                model.as_ref().and_then(|m| defs.get(m))
            } else {
                None
            };
            let Some(def) = def else {
                push(&mut expanded, line)?;
                continue;
            };
            changed = true;
            let actual_nodes = &tokens[1..split - 1];
            if actual_nodes.len() != def.pins.len() {
                return Err(SpiceError::InvalidCircuit(format!(
                    "'{line}': subcircuit expects {} pins, got {}",
                    def.pins.len(),
                    actual_nodes.len()
                )));
            }
            let inst = tokens[0].to_ascii_lowercase();
            let map_node = |n: &str| -> String {
                let low = n.to_ascii_lowercase();
                if low == "0" || low == "gnd" {
                    return "0".to_string();
                }
                if let Some(k) = def.pins.iter().position(|p| *p == low) {
                    return actual_nodes[k].to_ascii_lowercase();
                }
                format!("{inst}.{low}")
            };
            for body_line in &def.body {
                let mut btok: Vec<String> = body_line
                    .split_whitespace()
                    .map(|s| s.to_string())
                    .collect();
                let Some(first) = btok.first() else {
                    continue; // blank body line
                };
                if first.starts_with('.') {
                    return Err(SpiceError::InvalidCircuit(format!(
                        "directive '{first}' inside .subckt body"
                    )));
                }
                let Some(kind) = first.chars().next().map(|c| c.to_ascii_uppercase()) else {
                    continue;
                };
                let range = node_token_range(kind, &btok);
                for k in range {
                    btok[k] = map_node(&btok[k]);
                }
                // Uniquify the instance name too.
                btok[0] = format!("{}.{inst}", btok[0]);
                push(&mut expanded, btok.join(" "))?;
            }
        }
        lines = expanded;
        if !changed {
            return Ok(lines);
        }
    }
    Err(SpiceError::InvalidCircuit(
        "subcircuit expansion exceeded depth 32 (recursive definition?)".into(),
    ))
}

/// A deck-local model alias declared by a `.MODEL` card.
#[derive(Debug, Clone)]
struct ModelCard {
    /// The factory model (or another alias) this card refines.
    base: String,
    /// Default `KEY=value` parameters; instance parameters win.
    params: HashMap<String, f64>,
}

/// Collects every `.MODEL name base [KEY=val ...]` card up front, so an
/// instance may reference a model defined later in the deck.
fn collect_models(lines: &[String]) -> Result<HashMap<String, ModelCard>> {
    let mut models: HashMap<String, ModelCard> = HashMap::new();
    for line in lines {
        let tokens: Vec<&str> = line.split_whitespace().collect();
        if !tokens
            .first()
            .is_some_and(|t| t.eq_ignore_ascii_case(".model"))
        {
            continue;
        }
        let bad = |msg: &str| SpiceError::InvalidCircuit(format!("'{line}': {msg}"));
        if tokens.len() < 3 || tokens[1].contains('=') || tokens[2].contains('=') {
            return Err(bad(".model needs: .MODEL name base [KEY=value ...]"));
        }
        let name = tokens[1].to_ascii_lowercase();
        let base = tokens[2].to_ascii_lowercase();
        let mut params = HashMap::new();
        for kv in &tokens[3..] {
            let (k, v) = kv
                .split_once('=')
                .ok_or_else(|| bad("model parameters look like KEY=value"))?;
            params.insert(k.to_ascii_uppercase(), parse_value(v)?);
        }
        if models
            .insert(name.clone(), ModelCard { base, params })
            .is_some()
        {
            return Err(bad(&format!("duplicate .MODEL '{name}'")));
        }
    }
    Ok(models)
}

/// Resolves a device card's model through the `.MODEL` alias table:
/// follows alias chains (depth-capped) and layers parameters so that the
/// instance's own assignments override every card along the chain.
fn resolve_model(
    model: &str,
    instance_params: &HashMap<String, f64>,
    models: &HashMap<String, ModelCard>,
) -> Result<(String, HashMap<String, f64>)> {
    let mut name = model.to_string();
    let mut chain = Vec::new();
    while let Some(card) = models.get(&name) {
        if chain.len() >= 8 {
            return Err(SpiceError::InvalidCircuit(format!(
                ".MODEL alias chain from '{model}' exceeds depth 8 (recursive definition?)"
            )));
        }
        chain.push(card);
        name = card.base.clone();
    }
    // Outermost alias wins over the ones it refines; the instance wins
    // over all of them.
    let mut params = HashMap::new();
    for card in chain.iter().rev() {
        params.extend(card.params.iter().map(|(k, v)| (k.clone(), *v)));
    }
    params.extend(instance_params.iter().map(|(k, v)| (k.clone(), *v)));
    Ok((name, params))
}

/// Parses a SPICE deck into a circuit and directives.
///
/// Supports hierarchical `.subckt`/`.ends` definitions: `X` cards whose
/// model matches a subcircuit are flattened (internal nodes prefixed with
/// the instance name); other `X`/`M` cards go to the device factory,
/// after `.MODEL` aliases are resolved.
///
/// # Errors
///
/// Returns [`SpiceError::InvalidCircuit`] describing the offending card
/// (element syntax, unknown model, malformed directive, ...).
pub fn parse_deck<F: DeviceFactory>(text: &str, factory: &F) -> Result<ParsedDeck> {
    let mut ckt = Circuit::new();
    let mut directives = Vec::new();
    let mut sources: HashMap<String, SourceRef> = HashMap::new();
    let mut nodes: HashMap<String, NodeId> = HashMap::new();

    let (defs, top) = extract_subckts(logical_lines(text))?;
    let flat = expand_subckts(&defs, top)?;
    let models = collect_models(&flat)?;

    for line in flat {
        let tokens: Vec<String> = line.split_whitespace().map(|s| s.to_string()).collect();
        let Some(first_token) = tokens.first() else {
            continue; // blank line survived expansion
        };
        let card = first_token.to_ascii_uppercase();
        let bad = |msg: &str| SpiceError::InvalidCircuit(format!("'{line}': {msg}"));

        if card == ".END" {
            break;
        }
        if let Some(directive) = card.strip_prefix('.') {
            match directive {
                "OP" => directives.push(Directive::Op),
                "TRAN" => {
                    // .tran [tstep] tstop: a third value would be TSTART
                    // and a fourth TMAX, neither of which is honoured.
                    let tstop = match tokens.len() {
                        2 | 3 => parse_value(&tokens[tokens.len() - 1])?,
                        1 => return Err(bad(".tran needs a stop time")),
                        _ => {
                            return Err(bad(
                                ".tran takes [tstep] tstop; TSTART and TMAX are unsupported",
                            ))
                        }
                    };
                    directives.push(Directive::Tran { tstop });
                }
                "DC" => {
                    if tokens.len() != 5 {
                        return Err(bad(".dc needs SRC start stop step"));
                    }
                    let start = parse_value(&tokens[2])?;
                    let stop = parse_value(&tokens[3])?;
                    let step = parse_value(&tokens[4])?;
                    let points = linear_sweep_len(start, stop, step).ok_or_else(|| {
                        bad(".dc start, stop and step must be finite, with a nonzero \
                             step towards stop")
                    })?;
                    if points > MAX_DC_POINTS {
                        return Err(bad(&format!(".dc sweep exceeds {MAX_DC_POINTS} points")));
                    }
                    directives.push(Directive::Dc {
                        source: tokens[1].to_ascii_uppercase(),
                        start,
                        stop,
                        step,
                    });
                }
                "AC" => {
                    if tokens.len() != 5 || !tokens[1].eq_ignore_ascii_case("dec") {
                        return Err(bad(".ac needs: dec npoints fstart fstop"));
                    }
                    let points = parse_value(&tokens[2])?;
                    let f_start = parse_value(&tokens[3])?;
                    let f_stop = parse_value(&tokens[4])?;
                    if !(points >= 1.0 && points.fract() == 0.0) {
                        return Err(bad(".ac points per decade must be an integer >= 1"));
                    }
                    if !(f_start.is_finite() && f_start > 0.0) {
                        return Err(bad(".ac start frequency must be finite and positive"));
                    }
                    if f_stop.is_nan() || f_stop <= f_start {
                        return Err(bad(".ac stop frequency must exceed the start frequency"));
                    }
                    // The grid `log_sweep` would build, counted before it
                    // is allocated.
                    let total = ((f_stop / f_start).log10() * points).ceil() + 1.0;
                    if total > MAX_AC_POINTS as f64 {
                        return Err(bad(&format!(
                            ".ac sweep exceeds {MAX_AC_POINTS} frequency points"
                        )));
                    }
                    directives.push(Directive::Ac {
                        points_per_decade: points as usize,
                        f_start,
                        f_stop,
                    });
                }
                "IC" => {
                    // .ic v(node)=value [v(node)=value ...]
                    for assign in &tokens[1..] {
                        let a = assign.to_ascii_lowercase();
                        let inner = a
                            .strip_prefix("v(")
                            .and_then(|s| s.split_once(")="))
                            .ok_or_else(|| bad(".ic entries look like v(node)=value"))?;
                        let node = ckt.node(inner.0);
                        nodes.insert(inner.0.to_string(), node);
                        ckt.set_ic(node, parse_value(inner.1)?);
                    }
                }
                // Consumed (and validated) by the `collect_models` pre-pass.
                "MODEL" => {}
                other => return Err(bad(&format!("unknown directive .{other}"))),
            }
            continue;
        }

        // Element card. Terminal count by type.
        let Some(kind) = card.chars().next() else {
            continue;
        };
        let mut node_of = |name: &str| -> NodeId {
            let id = ckt.node(&name.to_ascii_lowercase());
            nodes.insert(name.to_ascii_lowercase(), id);
            id
        };
        match kind {
            'R' | 'C' | 'L' => {
                if tokens.len() < 4 {
                    return Err(bad("needs: name n1 n2 value"));
                }
                let a = node_of(&tokens[1]);
                let b = node_of(&tokens[2]);
                let v = parse_value(&tokens[3])?;
                match kind {
                    'R' => {
                        if !(v.is_finite() && v > 0.0) {
                            return Err(bad("resistance must be positive"));
                        }
                        ckt.resistor(a, b, v);
                    }
                    'C' => {
                        if !(v.is_finite() && v >= 0.0) {
                            return Err(bad("capacitance must be non-negative"));
                        }
                        ckt.capacitor(a, b, v);
                    }
                    _ => {
                        if !(v.is_finite() && v > 0.0) {
                            return Err(bad("inductance must be positive"));
                        }
                        ckt.inductor(a, b, v);
                    }
                }
            }
            'V' => {
                if tokens.len() < 4 {
                    return Err(bad("needs: name n+ n- waveform"));
                }
                let p = node_of(&tokens[1]);
                let m = node_of(&tokens[2]);
                let wave = parse_waveform(&tokens[3..])?;
                let src = ckt.vsource(p, m, wave);
                sources.insert(card.clone(), src);
            }
            'I' => {
                if tokens.len() < 4 {
                    return Err(bad("needs: name n+ n- waveform"));
                }
                let p = node_of(&tokens[1]);
                let m = node_of(&tokens[2]);
                let wave = parse_waveform(&tokens[3..])?;
                ckt.isource(p, m, wave);
            }
            'E' | 'G' => {
                if tokens.len() < 6 {
                    return Err(bad("needs: name out+ out- ctl+ ctl- gain"));
                }
                let op = node_of(&tokens[1]);
                let om = node_of(&tokens[2]);
                let cp = node_of(&tokens[3]);
                let cm = node_of(&tokens[4]);
                let gain = parse_value(&tokens[5])?;
                if !gain.is_finite() {
                    return Err(bad("gain must be finite"));
                }
                if kind == 'E' {
                    ckt.vcvs(op, om, cp, cm, gain);
                } else {
                    ckt.vccs(op, om, cp, cm, gain);
                }
            }
            'M' | 'X' => {
                // name n1 n2 ... model KEY=val ... — the model is the last
                // bare token before the first KEY=val.
                let split = tokens
                    .iter()
                    .position(|t| t.contains('='))
                    .unwrap_or(tokens.len());
                if split < 3 {
                    return Err(bad("device needs nodes and a model name"));
                }
                let model = tokens[split - 1].to_ascii_lowercase();
                let node_names = &tokens[1..split - 1];
                let ids: Vec<NodeId> = node_names.iter().map(|n| node_of(n)).collect();
                let mut params = HashMap::new();
                for kv in &tokens[split..] {
                    let (k, v) = kv
                        .split_once('=')
                        .ok_or_else(|| bad("device parameters look like KEY=value"))?;
                    params.insert(k.to_ascii_uppercase(), parse_value(v)?);
                }
                let (resolved, params) = resolve_model(&model, &params, &models)?;
                let via = if resolved == model {
                    String::new()
                } else {
                    format!(" (via .MODEL '{model}')")
                };
                let dev = factory
                    .make(&card, &resolved, &ids, &params)
                    .map_err(|e| match e {
                        FactoryError::UnknownModel => {
                            bad(&format!("unknown device model '{resolved}'{via}"))
                        }
                        FactoryError::Rejected(reason) => {
                            bad(&format!("device model '{resolved}'{via}: {reason}"))
                        }
                    })?;
                ckt.add_boxed_device(dev);
            }
            other => return Err(bad(&format!("unknown element type '{other}'"))),
        }
    }
    Ok(ParsedDeck {
        circuit: ckt,
        directives,
        sources,
        nodes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::op::op;
    use crate::analysis::tran::{transient, TranOptions};

    #[test]
    fn value_suffixes() {
        let close = |t: &str, v: f64| {
            let got = parse_value(t).unwrap();
            assert!(
                (got - v).abs() <= 1e-12 * v.abs().max(1e-20),
                "{t}: {got} vs {v}"
            );
        };
        close("10k", 10e3);
        close("2.5u", 2.5e-6);
        close("1meg", 1e6);
        close("50p", 50e-12);
        close("3f", 3e-15);
        close("1.2", 1.2);
        close("-5m", -5e-3);
        close("1e-9", 1e-9);
        close("10pF", 10e-12);
        assert!(parse_value("xyz").is_err());
    }

    #[test]
    fn parses_divider_and_runs_op() {
        let deck = "\
* divider
V1 in 0 DC 2.0
R1 in out 1k
R2 out 0 3k
.op
.end
";
        let parsed = parse_deck(deck, &NoDevices).unwrap();
        assert_eq!(parsed.directives, vec![Directive::Op]);
        let mut ckt = parsed.circuit;
        let res = op(&mut ckt).unwrap();
        let out = parsed.nodes["out"];
        assert!((res.voltage(out) - 1.5).abs() < 1e-6);
    }

    #[test]
    fn parses_pulse_source_and_tran() {
        let deck = "\
V1 in 0 PULSE(0 1.2 1n 50p 50p 2n 4n)
R1 in out 1k
C1 out 0 10f
.tran 1p 6n
.end
";
        let parsed = parse_deck(deck, &NoDevices).unwrap();
        match parsed.directives[0] {
            Directive::Tran { tstop } => assert!((tstop - 6e-9).abs() < 1e-20),
            ref other => panic!("expected .tran, got {other:?}"),
        }
        let mut ckt = parsed.circuit;
        let res = transient(&mut ckt, 6e-9, &TranOptions::default()).unwrap();
        let out = parsed.nodes["out"];
        assert!(res.voltage(out).eval(2.5e-9) > 1.15);
    }

    #[test]
    fn continuation_and_comments() {
        let deck = "\
* a comment
V1 in 0
+ DC 1.0        ; inline comment
R1 in 0 1k
.op
";
        let parsed = parse_deck(deck, &NoDevices).unwrap();
        assert!(parsed.sources.contains_key("V1"));
    }

    #[test]
    fn pwl_sin_and_exp_sources() {
        let deck = "\
V1 a 0 PWL(0 0 1n 1.0 2n 0.5)
V2 b 0 SIN(0.6 0.5 1meg)
V3 c 0 EXP(0 1.2 1n 0.2n 3n 0.5n)
R1 a 0 1k
R2 b 0 1k
R3 c 0 1k
.op
";
        let parsed = parse_deck(deck, &NoDevices).unwrap();
        assert_eq!(parsed.sources.len(), 3);
        assert!(parse_deck("V1 a 0 EXP(0 1 0 1)\nR1 a 0 1k\n.op\n", &NoDevices).is_err());
    }

    #[test]
    fn dc_sweep_directive() {
        let deck = "\
V1 in 0 DC 0
R1 in 0 1k
.dc V1 0 1.2 0.1
";
        let parsed = parse_deck(deck, &NoDevices).unwrap();
        assert_eq!(
            parsed.directives,
            vec![Directive::Dc {
                source: "V1".into(),
                start: 0.0,
                stop: 1.2,
                step: 0.1
            }]
        );
    }

    #[test]
    fn ic_directive_sets_initial_condition() {
        let deck = "\
R1 x 0 1k
C1 x 0 1n
.ic v(x)=2.0
.tran 10u
";
        let parsed = parse_deck(deck, &NoDevices).unwrap();
        assert_eq!(parsed.circuit.ics().len(), 1);
    }

    #[test]
    fn error_messages_name_the_line() {
        let err = parse_deck("Q1 a b c model", &NoDevices).unwrap_err();
        assert!(err.to_string().contains("Q1"));
        let err = parse_deck("R1 a 0 -5", &NoDevices).unwrap_err();
        assert!(err.to_string().contains("positive"));
        let err = parse_deck(".bogus 1", &NoDevices).unwrap_err();
        assert!(err.to_string().contains("bogus"));
        let err = parse_deck("M1 d g s mystery W=1u", &NoDevices).unwrap_err();
        assert!(err.to_string().contains("mystery"));
    }

    #[test]
    fn subckt_divider_expands_and_runs() {
        let deck = "\
.subckt div top out
R1 top out 1k
R2 out 0 1k
.ends
V1 in 0 DC 2.0
Xd in mid div
R3 mid 0 1meg
.op
";
        let parsed = parse_deck(deck, &NoDevices).unwrap();
        let mut ckt = parsed.circuit;
        let res = op(&mut ckt).unwrap();
        // Internal subckt node got prefixed and became v(mid) via the pin.
        let mid = parsed.nodes["mid"];
        // Divider loaded by 1 MΩ: very close to 1.0 V.
        assert!(
            (res.voltage(mid) - 1.0).abs() < 5e-3,
            "v(mid) = {}",
            res.voltage(mid)
        );
    }

    #[test]
    fn nested_instantiation_two_levels() {
        let deck = "\
.subckt unit a b
R1 a b 1k
.ends
.subckt pair x y
X1 x m unit
X2 m y unit
.ends
V1 in 0 DC 1.0
Xp in out pair
R9 out 0 2k
.op
";
        let parsed = parse_deck(deck, &NoDevices).unwrap();
        let mut ckt = parsed.circuit;
        let res = op(&mut ckt).unwrap();
        // 2 kΩ series (two units) into 2 kΩ: v(out) = 0.5.
        let out = parsed.nodes["out"];
        assert!(
            (res.voltage(out) - 0.5).abs() < 1e-6,
            "v(out) = {}",
            res.voltage(out)
        );
    }

    #[test]
    fn recursive_subckt_is_rejected() {
        let deck = "\
.subckt loopy a b
X1 a b loopy
.ends
V1 in 0 DC 1
Xl in 0 loopy
.op
";
        let err = parse_deck(deck, &NoDevices).unwrap_err();
        assert!(err.to_string().contains("depth"));
    }

    #[test]
    fn malformed_subckts_are_rejected() {
        assert!(parse_deck(".subckt only_name\n.ends\n", &NoDevices).is_err());
        assert!(parse_deck(".ends\n", &NoDevices).is_err());
        assert!(parse_deck(".subckt a p\nR1 p 0 1k\n", &NoDevices).is_err());
        let nested = ".subckt a p\n.subckt b q\n.ends\n.ends\n";
        assert!(parse_deck(nested, &NoDevices).is_err());
    }

    #[test]
    fn pin_count_mismatch_is_rejected() {
        let deck = "\
.subckt div top out
R1 top out 1k
.ends
V1 in 0 DC 1
Xd in div
.op
";
        let err = parse_deck(deck, &NoDevices).unwrap_err();
        assert!(err.to_string().contains("pins"));
    }

    #[test]
    fn unknown_model_is_rejected_with_name() {
        let deck = "M1 d g s nmos90 W=2u\n.op\n";
        assert!(parse_deck(deck, &NoDevices).is_err());
    }
}
