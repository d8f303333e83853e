//! The `key=val,key=val` argument lists of the spec grammars
//! ([`crate::topology::Topology`], [`crate::faults::FaultSpec`],
//! [`crate::dyntopo::ChurnSpec`]), read through one reader so that every
//! grammar words its errors alike and refuses keys it does not know.

use std::str::FromStr;

use crate::error::Error;

/// An [`Error::InvalidParameter`] with `reason`.
pub(crate) fn invalid(reason: String) -> Error {
    Error::InvalidParameter { reason }
}

/// A value type an argument parses to, with the noun its parse error
/// uses.
pub(crate) trait Value: FromStr {
    /// `"a number"` or `"an integer"`.
    const NOUN: &'static str;
}

impl Value for f64 {
    const NOUN: &'static str = "a number";
}

impl Value for u64 {
    const NOUN: &'static str = "an integer";
}

impl Value for usize {
    const NOUN: &'static str = "an integer";
}

/// Parses `val`, given for `key` of the spec `what`.
pub(crate) fn value<T: Value>(what: &str, key: &str, val: &str) -> Result<T, Error> {
    val.parse()
        .map_err(|_| invalid(format!("{what}: {key}={val} is not {}", T::NOUN)))
}

/// One spec's argument list. Lookups mark what they read;
/// [`Args::finish`] then refuses a key that no lookup read and a key
/// given twice.
pub(crate) struct Args<'a> {
    /// The spec being read, e.g. `fault spec crash`, as errors name it.
    what: String,
    /// `(key, val, read)`; an item without `=` is a bare value, key `""`.
    items: Vec<(&'a str, &'a str, bool)>,
}

impl<'a> Args<'a> {
    /// Splits `args` at commas (an empty `args` is an empty list).
    pub(crate) fn new(what: String, args: &'a str) -> Self {
        let items = args
            .split(',')
            .filter(|_| !args.is_empty())
            .map(|item| {
                let item = item.trim();
                match item.split_once('=') {
                    Some((k, v)) => (k.trim(), v.trim(), false),
                    None => ("", item, false),
                }
            })
            .collect();
        Args { what, items }
    }

    /// The value of `key`; with `shorthand`, a lone bare value stands
    /// for it.
    fn take(&mut self, key: &str, shorthand: bool) -> Option<&'a str> {
        let lone_bare = shorthand && matches!(self.items.as_slice(), [("", _, _)]);
        let at = (self.items.iter())
            .position(|&(k, _, _)| k == key)
            .or(lone_bare.then_some(0))?;
        self.items[at].2 = true;
        Some(self.items[at].1)
    }

    fn required<T: Value>(&mut self, key: &str, shorthand: bool) -> Result<T, Error> {
        let val = self
            .take(key, shorthand)
            .ok_or_else(|| invalid(format!("{}: missing {key}", self.what)))?;
        value(&self.what, key, val)
    }

    /// The value of a required `key`.
    pub(crate) fn get<T: Value>(&mut self, key: &str) -> Result<T, Error> {
        self.required(key, false)
    }

    /// The value of a required `key` that a lone bare value may stand
    /// for (`uniform:0.1` is `uniform:rate=0.1`).
    pub(crate) fn primary<T: Value>(&mut self, key: &str) -> Result<T, Error> {
        self.required(key, true)
    }

    /// The value of an optional `key`.
    pub(crate) fn opt<T: Value>(&mut self, key: &str) -> Result<Option<T>, Error> {
        self.take(key, false)
            .map(|val| value(&self.what, key, val))
            .transpose()
    }

    /// Refuses the first key given twice, then the first item no lookup
    /// read.
    pub(crate) fn finish(self) -> Result<(), Error> {
        let what = &self.what;
        for (i, &(key, _, _)) in self.items.iter().enumerate() {
            if !key.is_empty() && self.items[..i].iter().any(|&(k, _, _)| k == key) {
                return Err(invalid(format!("{what}: key {key:?} given twice")));
            }
        }
        if let Some(&(key, val, _)) = self.items.iter().find(|item| !item.2) {
            return Err(invalid(if key.is_empty() {
                format!("{what}: value {val:?} has no key")
            } else {
                format!("{what}: unknown key {key:?}")
            }));
        }
        Ok(())
    }
}
