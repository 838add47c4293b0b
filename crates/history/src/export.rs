//! History export: JSON Lines, one self-describing object per record.
//!
//! Built by hand from integers — no floating point, no map iteration
//! over unordered containers — so the bytes are a pure function of the
//! recorded history and identical at any harness thread count. Every field
//! is written straight into the output string — numbers by hand, digit by
//! digit, without `core::fmt` — so the export allocates for the string's
//! growth and nothing per record or per number.

use crate::record::{KeyVer, OpData, Record};

/// Append `v` in decimal: digits written backwards into a 20-byte buffer
/// (`u64::MAX` has 20), then appended in one copy.
fn push_u64(v: u64, out: &mut String) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    let mut v = v;
    loop {
        at -= 1;
        buf[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    let digits = std::str::from_utf8(&buf[at..]).expect("invariant: ASCII digits are UTF-8");
    out.push_str(digits);
}

/// Append `,"name":v`.
fn push_field(name: &str, v: u64, out: &mut String) {
    out.push_str(",\"");
    out.push_str(name);
    out.push_str("\":");
    push_u64(v, out);
}

/// Append `,"name":[...]`, each element rendered by `item`.
fn push_list<T>(name: &str, items: &[T], out: &mut String, item: impl Fn(&T, &mut String)) {
    out.push_str(",\"");
    out.push_str(name);
    out.push_str("\":[");
    for (i, x) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item(x, out);
    }
    out.push(']');
}

fn push_keyver(kv: &KeyVer, out: &mut String) {
    out.push_str("{\"space\":");
    push_u64(kv.space.into(), out);
    push_field("key", kv.key, out);
    push_field("ver", kv.version, out);
    out.push('}');
}

fn push_type(label: &str, out: &mut String) {
    out.push_str(",\"type\":\"");
    out.push_str(label);
    out.push('"');
}

fn push_site(label: &str, out: &mut String) {
    out.push_str(",\"site\":\"");
    out.push_str(label);
    out.push('"');
}

fn push_data(data: &OpData, out: &mut String) {
    match data {
        OpData::Order {
            order_id,
            item,
            quantity,
        } => {
            push_type("order", out);
            push_field("order_id", *order_id, out);
            push_field("item", *item, out);
            push_field("quantity", (*quantity).into(), out);
        }
        OpData::Transfer { from, to, amount } => {
            push_type("transfer", out);
            push_field("from", *from, out);
            push_field("to", *to, out);
            push_field("amount", *amount, out);
        }
        OpData::Append { key, value } => {
            push_type("append", out);
            push_field("key", *key, out);
            push_field("value", *value, out);
        }
        OpData::ReadBalances { site } => {
            push_type("read-balances", out);
            push_site(site.label(), out);
        }
        OpData::ReadList { key, site } => {
            push_type("read-list", out);
            push_field("key", *key, out);
            push_site(site.label(), out);
        }
        OpData::ReadShop { site } => {
            push_type("read-shop", out);
            push_site(site.label(), out);
        }
        OpData::Txn(ops) => {
            push_type("txn", out);
            push_list("reads", &ops.reads, out, push_keyver);
            push_list("writes", &ops.writes, out, push_keyver);
        }
        OpData::Balances { accounts, total } => {
            push_type("balances", out);
            push_field("accounts", *accounts, out);
            push_field("total", *total, out);
        }
        OpData::List { key, values } => {
            push_type("list", out);
            push_field("key", *key, out);
            push_list("values", values, out, |&v, out| push_u64(v, out));
        }
        OpData::Shop { orders, deltas } => {
            push_type("shop", out);
            push_list("orders", orders, out, |&v, out| push_u64(v, out));
            push_list("deltas", deltas, out, |&(item, sold), out| {
                out.push('[');
                push_u64(item, out);
                out.push(',');
                push_u64(sold, out);
                out.push(']');
            });
        }
        OpData::None => push_type("none", out),
    }
}

fn push_record(r: &Record, out: &mut String) {
    out.push_str("{\"seq\":");
    push_u64(r.seq, out);
    push_field("op", r.op.0, out);
    push_field("proc", r.process.into(), out);
    push_field("t_ns", r.t.as_nanos(), out);
    out.push_str(",\"phase\":\"");
    out.push_str(r.phase.label());
    out.push('"');
    push_data(&r.data, out);
    out.push_str("}\n");
}

/// Render records as JSON Lines in emission order. Empty input yields
/// the empty string.
pub fn export_jsonl(records: &[Record]) -> String {
    let mut out = String::new();
    for r in records {
        push_record(r, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::record::{KeyVer, OpData, Recorder, Site, TxnOps};
    use tsuru_sim::SimTime;

    #[test]
    fn jsonl_is_stable() {
        let r = Recorder::enabled();
        let op = r.invoke(
            2,
            SimTime::from_micros(5),
            OpData::Append { key: 1, value: 42 },
        );
        r.ok(
            2,
            op,
            SimTime::from_micros(9),
            OpData::Txn(TxnOps {
                reads: vec![KeyVer {
                    space: 4,
                    key: 1,
                    version: 0,
                }],
                writes: vec![KeyVer {
                    space: 4,
                    key: 1,
                    version: 1,
                }],
            }),
        );
        let read = r.invoke(
            1_000,
            SimTime::from_micros(20),
            OpData::ReadList {
                key: 1,
                site: Site::Backup,
            },
        );
        r.ok(
            1_000,
            read,
            SimTime::from_micros(20),
            OpData::List {
                key: 1,
                values: vec![42],
            },
        );
        let expect = concat!(
            "{\"seq\":0,\"op\":1,\"proc\":2,\"t_ns\":5000,\"phase\":\"invoke\",\"type\":\"append\",\"key\":1,\"value\":42}\n",
            "{\"seq\":1,\"op\":1,\"proc\":2,\"t_ns\":9000,\"phase\":\"ok\",\"type\":\"txn\",\"reads\":[{\"space\":4,\"key\":1,\"ver\":0}],\"writes\":[{\"space\":4,\"key\":1,\"ver\":1}]}\n",
            "{\"seq\":2,\"op\":2,\"proc\":1000,\"t_ns\":20000,\"phase\":\"invoke\",\"type\":\"read-list\",\"key\":1,\"site\":\"backup\"}\n",
            "{\"seq\":3,\"op\":2,\"proc\":1000,\"t_ns\":20000,\"phase\":\"ok\",\"type\":\"list\",\"key\":1,\"values\":[42]}\n",
        );
        assert_eq!(r.export_jsonl(), expect);
    }

    #[test]
    fn numbers_are_written_as_core_fmt_writes_them() {
        let mut edges = vec![0, 1, 9, 10, 99, 100, u32::MAX as u64, u64::MAX - 1, u64::MAX];
        edges.extend((0..20).map(|p| 10u64.pow(p)));
        edges.extend((1..20).map(|p| 10u64.pow(p) - 1));
        for v in edges {
            let mut out = String::from("x");
            super::push_u64(v, &mut out);
            assert_eq!(out, format!("x{v}"));
        }
    }

    #[test]
    fn empty_history_exports_empty() {
        assert_eq!(Recorder::enabled().export_jsonl(), "");
        assert_eq!(Recorder::disabled().export_jsonl(), "");
    }
}
