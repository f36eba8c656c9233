//! Structured trace events and their JSONL codec.
//!
//! Events are small and mostly `Copy`-ish: hot fields are integers and
//! `&'static str` names (opcode and intrinsic names are static in the VM;
//! deserialization goes through a global [`intern`] table so round-tripped
//! events compare equal). Only the rare [`TraceEvent::Violation`] carries
//! owned strings — it happens at most once per run and wants full
//! provenance.

use std::collections::HashSet;
use std::fmt;
use std::sync::{Mutex, OnceLock};

/// Which lookup layer answered a metapool object lookup (DESIGN.md §4.1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum LookupLayer {
    /// No object lookup was involved (e.g. `funccheck`, static ranges).
    #[default]
    None,
    /// Layer 0: the singleton test — the pool held exactly one live
    /// object, so two compares answered hit and definitive miss alike
    /// (DESIGN.md §4.1).
    Singleton,
    /// Layer 1: the 2-entry MRU last-hit cache.
    Cache,
    /// Layer 2: a binary search of the range index (hit or definitive
    /// miss; the name predates the index).
    Page,
    /// A splay-tree walk: every lookup of the `fast_path = false`
    /// baseline.
    Tree,
}

impl LookupLayer {
    /// Stable short name (JSONL / report key).
    pub fn name(self) -> &'static str {
        match self {
            LookupLayer::None => "none",
            LookupLayer::Singleton => "singleton",
            LookupLayer::Cache => "cache",
            LookupLayer::Page => "page",
            LookupLayer::Tree => "tree",
        }
    }

    /// Parses [`LookupLayer::name`] output.
    pub fn from_name(s: &str) -> Option<Self> {
        Some(match s {
            "none" => LookupLayer::None,
            "singleton" => LookupLayer::Singleton,
            "cache" => LookupLayer::Cache,
            "page" => LookupLayer::Page,
            "tree" => LookupLayer::Tree,
            _ => return None,
        })
    }

    /// Stable one-byte code for binary serialization (snapshot images).
    pub fn to_code(self) -> u8 {
        match self {
            LookupLayer::None => 0,
            LookupLayer::Singleton => 1,
            LookupLayer::Cache => 2,
            LookupLayer::Page => 3,
            LookupLayer::Tree => 4,
        }
    }

    /// Parses [`LookupLayer::to_code`] output.
    pub fn from_code(c: u8) -> Option<Self> {
        Some(match c {
            0 => LookupLayer::None,
            1 => LookupLayer::Singleton,
            2 => LookupLayer::Cache,
            3 => LookupLayer::Page,
            4 => LookupLayer::Tree,
            _ => return None,
        })
    }
}

impl fmt::Display for LookupLayer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Coarse event classification, used for ring-buffer pinning.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EventClass {
    /// Guest instruction retired.
    Inst,
    /// SVA-OS operation (intrinsic) enter/exit.
    Os,
    /// Run-time safety check executed.
    Check,
    /// Metapool object registration / release.
    Pool,
    /// User→kernel trap enter/exit.
    Syscall,
    /// Hardware interrupt delivery.
    Irq,
    /// A safety check fired.
    Violation,
    /// Violation containment: recovery unwind or pool quarantine.
    Recovery,
    /// Self-healing: subsystem repair and probation transitions
    /// (DESIGN.md §4.8).
    Repair,
}

impl EventClass {
    /// All classes (for "pin everything" configurations).
    pub const ALL: [EventClass; 9] = [
        EventClass::Inst,
        EventClass::Os,
        EventClass::Check,
        EventClass::Pool,
        EventClass::Syscall,
        EventClass::Irq,
        EventClass::Violation,
        EventClass::Recovery,
        EventClass::Repair,
    ];

    /// Bit of this class in a class mask (ring pinning, tracer
    /// [`crate::Tracer::WANTED`] filters). `const` so masks can be built
    /// in associated-constant position.
    pub const fn bit(self) -> u16 {
        1 << (self as u16)
    }
}

/// One structured trace event. Timestamps live in [`TimedEvent`]; the
/// event itself is pure payload.
#[derive(Clone, PartialEq, Debug)]
pub enum TraceEvent {
    /// One guest instruction retired. `cost` is the virtual-cycle delta the
    /// instruction was charged, including any SVA-OS ceremony it triggered
    /// — summing `cost` over all `Inst` events reproduces the cycle
    /// counter, which is what lets the profiler attribute ~100% of cycles.
    Inst {
        /// Function id (see the tracer's name table).
        func: u32,
        /// Static opcode name (`"load"`, `"call"`, `"br"`, ...).
        opcode: &'static str,
        /// Virtual cycles charged to this instruction.
        cost: u64,
    },
    /// An SVA-OS operation (intrinsic) began.
    OsEnter {
        /// Intrinsic name (`"sva.syscall"`, `"llva.load.integer"`, ...).
        op: &'static str,
    },
    /// The SVA-OS operation completed.
    OsExit {
        /// Intrinsic name.
        op: &'static str,
        /// Virtual cycles the operation added beyond the base instruction.
        cost: u64,
    },
    /// A run-time check executed.
    Check {
        /// Check intrinsic name (`"pchk.bounds"`, `"pchk.lscheck"`, ...).
        check: &'static str,
        /// Metapool id, or [`u32::MAX`] for checks with no pool (static
        /// ranges, funcsets).
        pool: u32,
        /// Which lookup layer resolved the object lookup.
        layer: LookupLayer,
        /// Whether the check passed.
        passed: bool,
        /// Virtual cycles charged.
        cost: u64,
    },
    /// An object was registered with a metapool (`pchk.reg.obj`).
    PoolReg {
        /// Metapool id.
        pool: u32,
        /// Object start address.
        addr: u64,
        /// Object length in bytes.
        len: u64,
    },
    /// An object was released from a metapool (`pchk.drop.obj`).
    PoolDrop {
        /// Metapool id.
        pool: u32,
        /// Object start address.
        addr: u64,
    },
    /// A user→kernel trap began (syscall dispatch).
    SyscallEnter {
        /// Syscall number.
        num: i64,
    },
    /// The trap returned to user mode (`sva.iret`).
    SyscallExit {
        /// Syscall number.
        num: i64,
        /// Virtual cycles between trap entry and return.
        cost: u64,
    },
    /// A hardware interrupt was delivered.
    IrqDeliver {
        /// Interrupt vector.
        vector: i64,
        /// Virtual cycles of the delivery ceremony.
        cost: u64,
    },
    /// A safety check fired: full object + access provenance.
    Violation {
        /// Check name.
        check: String,
        /// Metapool name.
        pool: String,
        /// Offending address.
        addr: u64,
        /// Human-readable context (object bounds, target set, ...).
        detail: String,
    },
    /// A kernel-mode violation was contained: the machine unwound to the
    /// innermost registered recovery domain instead of halting.
    RecoverUnwind {
        /// The resume code handed to the recovery continuation (packed
        /// kind / depth / pool / icontext, see DESIGN.md §4.3/§4.5).
        code: u64,
        /// Metapool id the violation was attributed to, or [`u32::MAX`]
        /// when no pool was involved (static ranges, funcsets, watchdog).
        pool: u32,
        /// Whether the pool crossed its violation budget on this unwind.
        poisoned: bool,
        /// Stack depth of the domain the thread unwound to (0 =
        /// outermost/boot).
        depth: u32,
        /// Owning-subsystem id of that domain.
        subsys: u64,
    },
    /// A recovery domain was pushed (`sva.recover.register`).
    DomainPush {
        /// Owning-subsystem id (`sva.recover.register` argument 0).
        subsys: u64,
        /// Stack depth the new domain occupies (0 = outermost).
        depth: u32,
    },
    /// A recovery domain was popped (no-argument `sva.recover.release`,
    /// or a watchdog force-pop).
    DomainPop {
        /// Owning-subsystem id of the popped domain.
        subsys: u64,
        /// Stack depth remaining after the pop.
        depth: u32,
        /// Whether the fuel watchdog forced the pop (a wedged domain).
        forced: bool,
    },
    /// A metapool's quarantine state changed after a violation.
    PoolQuarantine {
        /// Metapool id.
        pool: u32,
        /// Violations attributed to the pool so far.
        violations: u32,
        /// Whether the pool is now permanently poisoned.
        poisoned: bool,
    },
    /// `sva.recover.repair` tore down and reinitialized a subsystem's
    /// poisoned pools (DESIGN.md §4.8).
    Repair {
        /// Subsystem id whose pools were repaired.
        subsys: u64,
        /// Number of pools unpoisoned and reinitialized.
        pools: u32,
    },
    /// The kernel's repair manager reported a probation transition via
    /// `sva.recover.probation`.
    Probation {
        /// Subsystem id.
        subsys: u64,
        /// Transition verdict: 0 = probation passed (back to live),
        /// 1 = re-poisoned during probation (re-degraded, backoff
        /// doubled), 2 = strike budget exhausted (permanently retired).
        verdict: u64,
    },
}

impl TraceEvent {
    /// The event's class (pinning / filtering granularity).
    pub fn class(&self) -> EventClass {
        match self {
            TraceEvent::Inst { .. } => EventClass::Inst,
            TraceEvent::OsEnter { .. } | TraceEvent::OsExit { .. } => EventClass::Os,
            TraceEvent::Check { .. } => EventClass::Check,
            TraceEvent::PoolReg { .. } | TraceEvent::PoolDrop { .. } => EventClass::Pool,
            TraceEvent::SyscallEnter { .. } | TraceEvent::SyscallExit { .. } => EventClass::Syscall,
            TraceEvent::IrqDeliver { .. } => EventClass::Irq,
            TraceEvent::Violation { .. } => EventClass::Violation,
            TraceEvent::RecoverUnwind { .. }
            | TraceEvent::DomainPush { .. }
            | TraceEvent::DomainPop { .. }
            | TraceEvent::PoolQuarantine { .. } => EventClass::Recovery,
            TraceEvent::Repair { .. } | TraceEvent::Probation { .. } => EventClass::Repair,
        }
    }
}

/// A trace event with its virtual-cycle timestamp.
#[derive(Clone, PartialEq, Debug)]
pub struct TimedEvent {
    /// Virtual-cycle timestamp (the VM cycle counter when recorded).
    pub ts: u64,
    /// The event.
    pub event: TraceEvent,
}

// ---------------------------------------------------------------------------
// Interning (deserialized names become 'static).
// ---------------------------------------------------------------------------

/// Interns a string, returning a `'static` reference. Names in trace
/// events (opcodes, intrinsics, check kinds) form a small closed set, so
/// the table stays tiny; deserialization uses this to reconstruct the
/// `&'static str` fields.
pub fn intern(s: &str) -> &'static str {
    static TABLE: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    let table = TABLE.get_or_init(|| Mutex::new(HashSet::new()));
    let mut t = table.lock().unwrap();
    if let Some(existing) = t.get(s) {
        return existing;
    }
    let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
    t.insert(leaked);
    leaked
}

// ---------------------------------------------------------------------------
// JSONL codec (hand-rolled: the build environment is offline, no serde).
// ---------------------------------------------------------------------------

/// Escapes a string for a JSON literal.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl TimedEvent {
    /// One-line JSON encoding (the JSONL exporter's record format).
    pub fn to_json(&self) -> String {
        use TraceEvent::*;
        let ts = self.ts;
        match &self.event {
            Inst { func, opcode, cost } => format!(
                "{{\"ts\":{ts},\"ev\":\"inst\",\"func\":{func},\"op\":\"{}\",\"cost\":{cost}}}",
                json_escape(opcode)
            ),
            OsEnter { op } => format!(
                "{{\"ts\":{ts},\"ev\":\"os_enter\",\"op\":\"{}\"}}",
                json_escape(op)
            ),
            OsExit { op, cost } => format!(
                "{{\"ts\":{ts},\"ev\":\"os_exit\",\"op\":\"{}\",\"cost\":{cost}}}",
                json_escape(op)
            ),
            Check {
                check,
                pool,
                layer,
                passed,
                cost,
            } => format!(
                "{{\"ts\":{ts},\"ev\":\"check\",\"check\":\"{}\",\"pool\":{pool},\
                 \"layer\":\"{}\",\"passed\":{passed},\"cost\":{cost}}}",
                json_escape(check),
                layer.name()
            ),
            PoolReg { pool, addr, len } => format!(
                "{{\"ts\":{ts},\"ev\":\"pool_reg\",\"pool\":{pool},\"addr\":{addr},\"len\":{len}}}"
            ),
            PoolDrop { pool, addr } => {
                format!("{{\"ts\":{ts},\"ev\":\"pool_drop\",\"pool\":{pool},\"addr\":{addr}}}")
            }
            SyscallEnter { num } => {
                format!("{{\"ts\":{ts},\"ev\":\"sys_enter\",\"num\":{num}}}")
            }
            SyscallExit { num, cost } => {
                format!("{{\"ts\":{ts},\"ev\":\"sys_exit\",\"num\":{num},\"cost\":{cost}}}")
            }
            IrqDeliver { vector, cost } => {
                format!("{{\"ts\":{ts},\"ev\":\"irq\",\"vector\":{vector},\"cost\":{cost}}}")
            }
            Violation {
                check,
                pool,
                addr,
                detail,
            } => format!(
                "{{\"ts\":{ts},\"ev\":\"violation\",\"check\":\"{}\",\"pool\":\"{}\",\
                 \"addr\":{addr},\"detail\":\"{}\"}}",
                json_escape(check),
                json_escape(pool),
                json_escape(detail)
            ),
            RecoverUnwind {
                code,
                pool,
                poisoned,
                depth,
                subsys,
            } => format!(
                "{{\"ts\":{ts},\"ev\":\"recover\",\"code\":{code},\"pool\":{pool},\
                 \"poisoned\":{poisoned},\"depth\":{depth},\"subsys\":{subsys}}}"
            ),
            DomainPush { subsys, depth } => {
                format!("{{\"ts\":{ts},\"ev\":\"dom_push\",\"subsys\":{subsys},\"depth\":{depth}}}")
            }
            DomainPop {
                subsys,
                depth,
                forced,
            } => format!(
                "{{\"ts\":{ts},\"ev\":\"dom_pop\",\"subsys\":{subsys},\"depth\":{depth},\
                 \"forced\":{forced}}}"
            ),
            PoolQuarantine {
                pool,
                violations,
                poisoned,
            } => format!(
                "{{\"ts\":{ts},\"ev\":\"quarantine\",\"pool\":{pool},\
                 \"violations\":{violations},\"poisoned\":{poisoned}}}"
            ),
            Repair { subsys, pools } => {
                format!("{{\"ts\":{ts},\"ev\":\"repair\",\"subsys\":{subsys},\"pools\":{pools}}}")
            }
            Probation { subsys, verdict } => format!(
                "{{\"ts\":{ts},\"ev\":\"probation\",\"subsys\":{subsys},\"verdict\":{verdict}}}"
            ),
        }
    }

    /// Parses one [`TimedEvent::to_json`] line back into an event.
    pub fn from_json(line: &str) -> Option<TimedEvent> {
        let fields = parse_flat_object(line)?;
        let get = |k: &str| fields.iter().find(|(n, _)| n == k).map(|(_, v)| v);
        let num = |k: &str| -> Option<i128> {
            match get(k)? {
                JVal::Num(n) => Some(*n),
                JVal::Str(_) | JVal::Bool(_) => None,
            }
        };
        let s = |k: &str| -> Option<&str> {
            match get(k)? {
                JVal::Str(v) => Some(v.as_str()),
                _ => None,
            }
        };
        let b = |k: &str| -> Option<bool> {
            match get(k)? {
                JVal::Bool(v) => Some(*v),
                _ => None,
            }
        };
        let ts = num("ts")? as u64;
        let event = match s("ev")? {
            "inst" => TraceEvent::Inst {
                func: num("func")? as u32,
                opcode: intern(s("op")?),
                cost: num("cost")? as u64,
            },
            "os_enter" => TraceEvent::OsEnter {
                op: intern(s("op")?),
            },
            "os_exit" => TraceEvent::OsExit {
                op: intern(s("op")?),
                cost: num("cost")? as u64,
            },
            "check" => TraceEvent::Check {
                check: intern(s("check")?),
                pool: num("pool")? as u32,
                layer: LookupLayer::from_name(s("layer")?)?,
                passed: b("passed")?,
                cost: num("cost")? as u64,
            },
            "pool_reg" => TraceEvent::PoolReg {
                pool: num("pool")? as u32,
                addr: num("addr")? as u64,
                len: num("len")? as u64,
            },
            "pool_drop" => TraceEvent::PoolDrop {
                pool: num("pool")? as u32,
                addr: num("addr")? as u64,
            },
            "sys_enter" => TraceEvent::SyscallEnter {
                num: num("num")? as i64,
            },
            "sys_exit" => TraceEvent::SyscallExit {
                num: num("num")? as i64,
                cost: num("cost")? as u64,
            },
            "irq" => TraceEvent::IrqDeliver {
                vector: num("vector")? as i64,
                cost: num("cost")? as u64,
            },
            "violation" => TraceEvent::Violation {
                check: s("check")?.to_string(),
                pool: s("pool")?.to_string(),
                addr: num("addr")? as u64,
                detail: s("detail")?.to_string(),
            },
            "recover" => TraceEvent::RecoverUnwind {
                code: num("code")? as u64,
                pool: num("pool")? as u32,
                poisoned: b("poisoned")?,
                depth: num("depth")? as u32,
                subsys: num("subsys")? as u64,
            },
            "dom_push" => TraceEvent::DomainPush {
                subsys: num("subsys")? as u64,
                depth: num("depth")? as u32,
            },
            "dom_pop" => TraceEvent::DomainPop {
                subsys: num("subsys")? as u64,
                depth: num("depth")? as u32,
                forced: b("forced")?,
            },
            "quarantine" => TraceEvent::PoolQuarantine {
                pool: num("pool")? as u32,
                violations: num("violations")? as u32,
                poisoned: b("poisoned")?,
            },
            "repair" => TraceEvent::Repair {
                subsys: num("subsys")? as u64,
                pools: num("pools")? as u32,
            },
            "probation" => TraceEvent::Probation {
                subsys: num("subsys")? as u64,
                verdict: num("verdict")? as u64,
            },
            _ => return None,
        };
        Some(TimedEvent { ts, event })
    }
}

/// A flat JSON value (this codec never nests).
enum JVal {
    Num(i128),
    Str(String),
    Bool(bool),
}

/// Parses a single-level JSON object of string/number/bool values.
fn parse_flat_object(line: &str) -> Option<Vec<(String, JVal)>> {
    let mut chars = line.trim().chars().peekable();
    if chars.next()? != '{' {
        return None;
    }
    let mut fields = Vec::new();
    loop {
        match chars.peek()? {
            '}' => {
                chars.next();
                return Some(fields);
            }
            ',' => {
                chars.next();
            }
            _ => {}
        }
        let key = parse_string(&mut chars)?;
        if chars.next()? != ':' {
            return None;
        }
        let val = match chars.peek()? {
            '"' => JVal::Str(parse_string(&mut chars)?),
            't' => {
                for expect in "true".chars() {
                    if chars.next()? != expect {
                        return None;
                    }
                }
                JVal::Bool(true)
            }
            'f' => {
                for expect in "false".chars() {
                    if chars.next()? != expect {
                        return None;
                    }
                }
                JVal::Bool(false)
            }
            _ => {
                let mut text = String::new();
                while matches!(chars.peek(), Some(c) if c.is_ascii_digit() || *c == '-') {
                    text.push(chars.next()?);
                }
                JVal::Num(text.parse().ok()?)
            }
        };
        fields.push((key, val));
    }
}

/// Parses a JSON string literal (cursor on the opening quote).
fn parse_string(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Option<String> {
    if chars.next()? != '"' {
        return None;
    }
    let mut out = String::new();
    loop {
        match chars.next()? {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let mut code = 0u32;
                    for _ in 0..4 {
                        code = code * 16 + chars.next()?.to_digit(16)?;
                    }
                    out.push(char::from_u32(code)?);
                }
                _ => return None,
            },
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<TimedEvent> {
        vec![
            TimedEvent {
                ts: 1,
                event: TraceEvent::Inst {
                    func: 7,
                    opcode: "load",
                    cost: 1,
                },
            },
            TimedEvent {
                ts: 2,
                event: TraceEvent::OsEnter { op: "sva.syscall" },
            },
            TimedEvent {
                ts: 44,
                event: TraceEvent::OsExit {
                    op: "sva.syscall",
                    cost: 40,
                },
            },
            TimedEvent {
                ts: 45,
                event: TraceEvent::Check {
                    check: "pchk.bounds",
                    pool: 3,
                    layer: LookupLayer::Cache,
                    passed: true,
                    cost: 16,
                },
            },
            TimedEvent {
                ts: 46,
                event: TraceEvent::PoolReg {
                    pool: 3,
                    addr: 0x1000,
                    len: 64,
                },
            },
            TimedEvent {
                ts: 47,
                event: TraceEvent::PoolDrop {
                    pool: 3,
                    addr: 0x1000,
                },
            },
            TimedEvent {
                ts: 48,
                event: TraceEvent::SyscallEnter { num: -3 },
            },
            TimedEvent {
                ts: 90,
                event: TraceEvent::SyscallExit { num: -3, cost: 42 },
            },
            TimedEvent {
                ts: 91,
                event: TraceEvent::IrqDeliver {
                    vector: 32,
                    cost: 40,
                },
            },
            TimedEvent {
                ts: 99,
                event: TraceEvent::Violation {
                    check: "pchk.lscheck".into(),
                    pool: "MP4".into(),
                    addr: 0xdead,
                    detail: "object [0x1000, 0x1040) \"quoted\"\nline".into(),
                },
            },
            TimedEvent {
                ts: 100,
                event: TraceEvent::RecoverUnwind {
                    code: 0x0001_0002_0006,
                    pool: 4,
                    poisoned: false,
                    depth: 1,
                    subsys: 4,
                },
            },
            TimedEvent {
                ts: 100,
                event: TraceEvent::DomainPush {
                    subsys: 4,
                    depth: 1,
                },
            },
            TimedEvent {
                ts: 100,
                event: TraceEvent::DomainPop {
                    subsys: 4,
                    depth: 0,
                    forced: true,
                },
            },
            TimedEvent {
                ts: 101,
                event: TraceEvent::PoolQuarantine {
                    pool: 4,
                    violations: 3,
                    poisoned: true,
                },
            },
            TimedEvent {
                ts: 150,
                event: TraceEvent::Repair {
                    subsys: 4,
                    pools: 1,
                },
            },
            TimedEvent {
                ts: 151,
                event: TraceEvent::Probation {
                    subsys: 4,
                    verdict: 0,
                },
            },
        ]
    }

    #[test]
    fn json_round_trip_every_variant() {
        for ev in samples() {
            let line = ev.to_json();
            let back =
                TimedEvent::from_json(&line).unwrap_or_else(|| panic!("unparseable: {line}"));
            assert_eq!(back, ev, "round trip of {line}");
        }
    }

    #[test]
    fn classes_cover_every_variant() {
        let classes: Vec<EventClass> = samples().iter().map(|e| e.event.class()).collect();
        for c in EventClass::ALL {
            assert!(classes.contains(&c), "no sample with class {c:?}");
        }
    }

    #[test]
    fn malformed_lines_are_rejected() {
        for bad in [
            "",
            "{}",
            "{\"ts\":1}",
            "{\"ts\":1,\"ev\":\"nope\"}",
            "{\"ts\":1,\"ev\":\"inst\",\"func\":\"x\",\"op\":\"load\",\"cost\":1}",
            "not json at all",
        ] {
            assert!(TimedEvent::from_json(bad).is_none(), "accepted: {bad}");
        }
    }

    #[test]
    fn intern_returns_stable_references() {
        let a = intern("pchk.bounds");
        let b = intern("pchk.bounds");
        assert!(std::ptr::eq(a, b));
    }
}
