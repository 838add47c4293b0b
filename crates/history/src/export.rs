//! History export: JSON Lines, one self-describing object per record.
//!
//! Built by hand from integers — no floating point, no map iteration
//! over unordered containers — so the bytes are a pure function of the
//! recorded history and identical at any harness thread count. Every field
//! is formatted straight into the output string: the export allocates for
//! the string's growth and nothing per record or per number.

use std::fmt::{self, Write};

use crate::record::{OpData, Record};

fn push_keyvers(field: &str, kvs: &[crate::record::KeyVer], out: &mut String) -> fmt::Result {
    write!(out, ",\"{field}\":[")?;
    for (i, kv) in kvs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write!(
            out,
            "{{\"space\":{},\"key\":{},\"ver\":{}}}",
            kv.space, kv.key, kv.version
        )?;
    }
    out.push(']');
    Ok(())
}

fn push_u64s(field: &str, vs: &[u64], out: &mut String) -> fmt::Result {
    write!(out, ",\"{field}\":[")?;
    for (i, v) in vs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write!(out, "{v}")?;
    }
    out.push(']');
    Ok(())
}

fn push_data(data: &OpData, out: &mut String) -> fmt::Result {
    match data {
        OpData::Order {
            order_id,
            item,
            quantity,
        } => write!(
            out,
            ",\"type\":\"order\",\"order_id\":{order_id},\"item\":{item},\"quantity\":{quantity}"
        ),
        OpData::Transfer { from, to, amount } => write!(
            out,
            ",\"type\":\"transfer\",\"from\":{from},\"to\":{to},\"amount\":{amount}"
        ),
        OpData::Append { key, value } => {
            write!(out, ",\"type\":\"append\",\"key\":{key},\"value\":{value}")
        }
        OpData::ReadBalances { site } => write!(
            out,
            ",\"type\":\"read-balances\",\"site\":\"{}\"",
            site.label()
        ),
        OpData::ReadList { key, site } => write!(
            out,
            ",\"type\":\"read-list\",\"key\":{key},\"site\":\"{}\"",
            site.label()
        ),
        OpData::ReadShop { site } => {
            write!(out, ",\"type\":\"read-shop\",\"site\":\"{}\"", site.label())
        }
        OpData::Txn(ops) => {
            out.push_str(",\"type\":\"txn\"");
            push_keyvers("reads", &ops.reads, out)?;
            push_keyvers("writes", &ops.writes, out)
        }
        OpData::Balances { accounts, total } => write!(
            out,
            ",\"type\":\"balances\",\"accounts\":{accounts},\"total\":{total}"
        ),
        OpData::List { key, values } => {
            write!(out, ",\"type\":\"list\",\"key\":{key}")?;
            push_u64s("values", values, out)
        }
        OpData::Shop { orders, deltas } => {
            out.push_str(",\"type\":\"shop\"");
            push_u64s("orders", orders, out)?;
            out.push_str(",\"deltas\":[");
            for (i, (item, sold)) in deltas.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write!(out, "[{item},{sold}]")?;
            }
            out.push(']');
            Ok(())
        }
        OpData::None => {
            out.push_str(",\"type\":\"none\"");
            Ok(())
        }
    }
}

fn push_record(r: &Record, out: &mut String) -> fmt::Result {
    write!(
        out,
        "{{\"seq\":{},\"op\":{},\"proc\":{},\"t_ns\":{},\"phase\":\"{}\"",
        r.seq,
        r.op.0,
        r.process,
        r.t.as_nanos(),
        r.phase.label()
    )?;
    push_data(&r.data, out)?;
    out.push_str("}\n");
    Ok(())
}

/// Render records as JSON Lines in emission order. Empty input yields
/// the empty string.
pub fn export_jsonl<'r>(records: impl IntoIterator<Item = &'r Record>) -> String {
    let mut out = String::new();
    for r in records {
        push_record(r, &mut out).expect("invariant: formatting integers into a String cannot fail");
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::record::{OpData, Recorder, Site, TxnOps, KeyVer};
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
    fn empty_history_exports_empty() {
        assert_eq!(Recorder::enabled().export_jsonl(), "");
        assert_eq!(Recorder::disabled().export_jsonl(), "");
    }
}
