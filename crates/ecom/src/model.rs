//! Row formats for the e-commerce schema.
//!
//! The paper's business process keeps a *stock* database (inventory) and a
//! *sales* database (orders) on separate database instances (§I, §II).

use tsuru_minidb::TableId;

/// The items table in the stock database.
pub const STOCK_TABLE: TableId = TableId(1);
/// The orders table in the sales database.
pub const ORDERS_TABLE: TableId = TableId(1);
/// The per-key append lists of the append-list workload, kept in the
/// sales database (the orders table is `TableId(1)` there, so the two
/// workloads never collide).
pub const LISTS_TABLE: TableId = TableId(2);

/// Serialize an append list (concatenated LE u64 values).
pub fn encode_list(values: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 8);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Parse an append list; trailing partial words are dropped (they can
/// only come from a corrupted row, which the checker flags separately).
pub fn decode_list(buf: &[u8]) -> Vec<u64> {
    buf.chunks_exact(8)
        .map(|c| {
            u64::from_le_bytes(
                c.try_into()
                    .expect("invariant: chunks_exact(8) yields 8-byte chunks"),
            )
        })
        .collect()
}

/// One inventory row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StockRow {
    /// Units on hand.
    pub quantity: u64,
}

impl StockRow {
    /// Serialize (8 bytes LE).
    pub fn encode(&self) -> [u8; 8] {
        self.quantity.to_le_bytes()
    }

    /// Parse; `None` on malformed input.
    pub fn decode(buf: &[u8]) -> Option<StockRow> {
        Some(StockRow {
            quantity: u64::from_le_bytes(buf.get(0..8)?.try_into().ok()?),
        })
    }
}

/// One order row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OrderRow {
    /// Item purchased.
    pub item: u64,
    /// Units purchased.
    pub quantity: u32,
    /// Client that placed the order.
    pub client: u32,
}

impl OrderRow {
    /// Serialize (16 bytes LE).
    pub fn encode(&self) -> [u8; 16] {
        // item | quantity | client, each little-endian, is one LE u128.
        let packed =
            (self.client as u128) << 96 | (self.quantity as u128) << 64 | self.item as u128;
        packed.to_le_bytes()
    }

    /// Parse; `None` on malformed input.
    pub fn decode(buf: &[u8]) -> Option<OrderRow> {
        Some(OrderRow {
            item: u64::from_le_bytes(buf.get(0..8)?.try_into().ok()?),
            quantity: u32::from_le_bytes(buf.get(8..12)?.try_into().ok()?),
            client: u32::from_le_bytes(buf.get(12..16)?.try_into().ok()?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stock_roundtrip() {
        let r = StockRow { quantity: 42 };
        assert_eq!(StockRow::decode(&r.encode()), Some(r));
        assert_eq!(StockRow::decode(b"abc"), None);
    }

    #[test]
    fn list_roundtrip() {
        let values = [7u64, 1 << 40, 0];
        assert_eq!(decode_list(&encode_list(&values)), values);
        assert_eq!(decode_list(&[]), Vec::<u64>::new());
        assert_eq!(decode_list(&[1, 2, 3]), Vec::<u64>::new());
    }

    #[test]
    fn order_roundtrip() {
        let r = OrderRow {
            item: 7,
            quantity: 3,
            client: 12,
        };
        assert_eq!(OrderRow::decode(&r.encode()), Some(r));
        assert_eq!(OrderRow::decode(&[0; 5]), None);
    }
}
