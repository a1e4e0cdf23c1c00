//! Evaluation environments for free relation variables.
//!
//! Fixpoint recursion variables are managed internally by the evaluators;
//! [`RelEnv`] binds the *free* relation variables of a formula — the
//! existentially quantified relations of an ESO body during naive
//! enumeration, or caller-supplied auxiliary relations.

use bvq_relation::Relation;

/// A binding of relation-variable names to concrete relations.
#[derive(Clone, Debug, Default)]
pub struct RelEnv {
    bindings: Vec<(String, Relation)>,
}

impl RelEnv {
    /// An empty environment.
    pub fn new() -> Self {
        RelEnv::default()
    }

    /// Binds `name` to `rel` (shadowing any earlier binding of the name).
    pub fn bind(&mut self, name: &str, rel: Relation) {
        self.bindings.push((name.to_string(), rel));
    }

    /// Builder-style binding.
    #[must_use]
    pub fn with(mut self, name: &str, rel: Relation) -> Self {
        self.bind(name, rel);
        self
    }

    /// Looks up the most recent binding of `name`.
    pub fn get(&self, name: &str) -> Option<&Relation> {
        self.bindings
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, r)| r)
    }

    /// Removes the most recent binding of `name`.
    pub fn unbind(&mut self, name: &str) {
        if let Some(pos) = self.bindings.iter().rposition(|(n, _)| n == name) {
            self.bindings.remove(pos);
        }
    }

    /// Removes the most recent binding of `name` and returns it.
    pub(crate) fn take(&mut self, name: &str) -> Option<Relation> {
        let pos = self.bindings.iter().rposition(|(n, _)| n == name)?;
        Some(self.bindings.remove(pos).1)
    }

    /// Iterates over `(name, relation)` pairs, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Relation)> + '_ {
        self.bindings.iter().map(|(n, r)| (n.as_str(), r))
    }

    /// Number of bindings.
    pub fn len(&self) -> usize {
        self.bindings.len()
    }

    /// Whether there are no bindings.
    pub fn is_empty(&self) -> bool {
        self.bindings.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_shadow_unbind() {
        let mut env = RelEnv::new();
        env.bind("S", Relation::new(1));
        env.bind("S", Relation::boolean(true));
        assert_eq!(env.get("S").unwrap().arity(), 0);
        env.unbind("S");
        assert_eq!(env.get("S").unwrap().arity(), 1);
        env.unbind("S");
        assert!(env.get("S").is_none());
        assert!(env.is_empty());
    }

    #[test]
    fn with_builder() {
        let env = RelEnv::new()
            .with("A", Relation::new(2))
            .with("B", Relation::new(3));
        assert_eq!(env.len(), 2);
        assert_eq!(env.get("B").unwrap().arity(), 3);
    }
}
