//! Dataset attribute schemas.
//!
//! The paper's evaluation dataset (NOAA NAM) carries several observational
//! attributes per point — "surface temperature, relative humidity, snow and
//! precipitation" (§VIII-B). STASH itself is attribute-agnostic: a schema
//! simply names the columns so that `values[i]` in an observation and
//! `summaries[i]` in a Cell line up.

/// An ordered list of attribute names shared by a dataset, its observations,
/// and all Cells aggregated from it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttrSchema {
    names: Vec<String>,
}

impl AttrSchema {
    /// Build a schema from attribute names.
    ///
    /// # Panics
    /// Panics on duplicate names — positional lookup would be ambiguous.
    pub fn new<S: Into<String>>(names: impl IntoIterator<Item = S>) -> Self {
        let names: Vec<String> = names.into_iter().map(Into::into).collect();
        for (i, n) in names.iter().enumerate() {
            assert!(
                !names[..i].contains(n),
                "duplicate attribute name {n:?} in schema"
            );
        }
        AttrSchema { names }
    }

    /// The four NAM surface attributes used throughout the paper's
    /// experiments.
    pub fn nam() -> Self {
        AttrSchema::new([
            "temperature",
            "relative_humidity",
            "precipitation",
            "snow_depth",
        ])
    }

    /// Number of attributes.
    #[inline]
    pub fn len(&self) -> usize {
        self.names.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Attribute name by index.
    pub fn name(&self, i: usize) -> Option<&str> {
        self.names.get(i).map(String::as_str)
    }

    /// Index of an attribute name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// All names in schema order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.names.iter().map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nam_schema_shape() {
        let s = AttrSchema::nam();
        assert_eq!(s.len(), 4);
        assert_eq!(s.index_of("temperature"), Some(0));
        assert_eq!(s.index_of("snow_depth"), Some(3));
        assert_eq!(s.index_of("wind"), None);
        assert_eq!(s.name(1), Some("relative_humidity"));
        assert_eq!(s.name(9), None);
    }

    #[test]
    fn names_iterate_in_order() {
        let s = AttrSchema::new(["a", "b", "c"]);
        let v: Vec<&str> = s.names().collect();
        assert_eq!(v, ["a", "b", "c"]);
    }

    #[test]
    #[should_panic(expected = "duplicate attribute")]
    fn duplicates_rejected() {
        AttrSchema::new(["x", "y", "x"]);
    }

    #[test]
    fn empty_schema_is_allowed() {
        let s = AttrSchema::new(Vec::<String>::new());
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }
}
