//! Hashable, equatable join/grouping keys.
//!
//! The estimation framework maintains exact frequency histograms keyed by
//! attribute value (the `N_i` counts of the paper). [`Key`] is the subset of
//! [`Value`] that supports sound hashing and equality, plus a
//! compact composite form for multi-column keys.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::error::{QError, QResult};
use crate::value::Value;

/// A single-column join or grouping key.
///
/// `Null` keys are representable so that grouping can place all NULLs in one
/// group; equi-joins must filter them out (NULL never equi-joins in SQL),
/// which the join operators do before consulting their histograms.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Key {
    Null,
    Bool(bool),
    Int(i64),
    Str(Arc<str>),
    /// A composite key over multiple columns (conjunctive multi-attribute
    /// join conditions, multi-column grouping).
    Composite(Arc<[Key]>),
}

impl Key {
    /// Convert a [`Value`] into a key, rejecting non-key types (floats).
    pub fn from_value(v: &Value) -> QResult<Key> {
        match v {
            Value::Null => Ok(Key::Null),
            Value::Bool(b) => Ok(Key::Bool(*b)),
            Value::Int64(i) => Ok(Key::Int(*i)),
            Value::Str(s) => Ok(Key::Str(Arc::clone(s))),
            Value::Float64(_) => Err(QError::type_err(
                "DOUBLE columns cannot be join/grouping keys",
            )),
        }
    }

    /// Build a composite key from parts. A composite containing any NULL
    /// part is itself considered NULL for equi-join purposes.
    pub fn composite(parts: Vec<Key>) -> Key {
        Key::Composite(Arc::from(parts))
    }

    /// True iff this key is the NULL key (a composite counts as NULL when
    /// any component is — SQL conjunctive equality cannot hold then).
    pub fn is_null(&self) -> bool {
        match self {
            Key::Null => true,
            Key::Composite(parts) => parts.iter().any(Key::is_null),
            _ => false,
        }
    }

    /// Approximate in-memory footprint in bytes, counting string payloads.
    pub fn memory_size(&self) -> usize {
        let base = std::mem::size_of::<Key>();
        match self {
            Key::Str(s) => base + s.len(),
            Key::Composite(parts) => base + parts.iter().map(Key::memory_size).sum::<usize>(),
            _ => base,
        }
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Key::Null => f.write_str("NULL"),
            Key::Bool(b) => write!(f, "{b}"),
            Key::Int(i) => write!(f, "{i}"),
            Key::Str(s) => write!(f, "{s}"),
            Key::Composite(parts) => {
                write!(f, "(")?;
                for (i, k) in parts.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k}")?;
                }
                write!(f, ")")
            }
        }
    }
}

impl From<i64> for Key {
    fn from(v: i64) -> Self {
        Key::Int(v)
    }
}

impl From<&str> for Key {
    fn from(v: &str) -> Self {
        Key::Str(Arc::from(v))
    }
}

/// A composite (multi-column) key.
///
/// Stored as a boxed slice to keep the common single-column case cheap to
/// clone and hash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompositeKey(pub Box<[Key]>);

impl CompositeKey {
    /// Build a composite key by extracting `cols` from a slice of values.
    pub fn from_values(values: &[Value], cols: &[usize]) -> QResult<CompositeKey> {
        let mut parts = Vec::with_capacity(cols.len());
        for &c in cols {
            let v = values.get(c).ok_or_else(|| {
                QError::internal(format!("key column {c} out of bounds ({})", values.len()))
            })?;
            parts.push(Key::from_value(v)?);
        }
        Ok(CompositeKey(parts.into_boxed_slice()))
    }

    /// True iff any component is NULL (such keys never equi-join).
    pub fn any_null(&self) -> bool {
        self.0.iter().any(Key::is_null)
    }
}

impl Hash for CompositeKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Must match `<[Key] as Hash>` exactly: hash tables keyed by
        // `CompositeKey` rely on `Borrow<[Key]>` lookups with a borrowed
        // slice to avoid allocating a boxed key per probe.
        self.0.hash(state);
    }
}

impl std::borrow::Borrow<[Key]> for CompositeKey {
    fn borrow(&self) -> &[Key] {
        &self.0
    }
}

impl fmt::Display for CompositeKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, k) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{k}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn from_value_accepts_key_types() {
        assert_eq!(Key::from_value(&Value::Int64(3)).unwrap(), Key::Int(3));
        assert_eq!(
            Key::from_value(&Value::str("x")).unwrap(),
            Key::Str(Arc::from("x"))
        );
        assert_eq!(Key::from_value(&Value::Null).unwrap(), Key::Null);
        assert!(Key::from_value(&Value::Float64(1.0)).is_err());
    }

    #[test]
    fn keys_work_in_hash_maps() {
        let mut m: HashMap<Key, u64> = HashMap::new();
        *m.entry(Key::Int(5)).or_default() += 1;
        *m.entry(Key::Int(5)).or_default() += 1;
        *m.entry(Key::from("a")).or_default() += 1;
        assert_eq!(m[&Key::Int(5)], 2);
        assert_eq!(m[&Key::from("a")], 1);
    }

    #[test]
    fn composite_key_variant() {
        let k = Key::composite(vec![Key::Int(1), Key::from("a")]);
        assert_eq!(k.to_string(), "(1, a)");
        assert!(!k.is_null());
        let n = Key::composite(vec![Key::Int(1), Key::Null]);
        assert!(n.is_null());
        // usable in maps
        let mut m = HashMap::new();
        m.insert(k.clone(), 5);
        assert_eq!(m[&Key::composite(vec![Key::Int(1), Key::from("a")])], 5);
        assert!(k.memory_size() > Key::Int(1).memory_size());
    }

    #[test]
    fn composite_key_extraction_and_null_detection() {
        let row = vec![Value::Int64(1), Value::str("a"), Value::Null];
        let k = CompositeKey::from_values(&row, &[0, 1]).unwrap();
        assert!(!k.any_null());
        assert_eq!(k.to_string(), "(1, a)");
        let k2 = CompositeKey::from_values(&row, &[0, 2]).unwrap();
        assert!(k2.any_null());
        assert!(CompositeKey::from_values(&row, &[9]).is_err());
    }

    #[test]
    fn composite_keys_hash_consistently() {
        let row = vec![Value::Int64(1), Value::Int64(2)];
        let a = CompositeKey::from_values(&row, &[0, 1]).unwrap();
        let b = CompositeKey::from_values(&row, &[0, 1]).unwrap();
        let mut m = HashMap::new();
        m.insert(a, 1);
        assert_eq!(m[&b], 1);
    }
}
