//! Domains and domain metadata.
//!
//! The paper distinguishes *prior domains* — topics on which workers already have an
//! answering history — from the *target domain*, the new topic the requester needs
//! annotated. Table III of the paper also records, for each real-world domain, the
//! visual features workers must attend to and the knowledge source the images came
//! from; that metadata is carried along here so the benchmark harness can regenerate
//! the descriptive tables.

use std::fmt;

/// Identifies a domain within a dataset: one of the `D` prior domains or the target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Domain {
    /// A prior domain, indexed from 0.
    Prior(usize),
    /// The target domain.
    Target,
}

impl fmt::Display for Domain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Domain::Prior(i) => write!(f, "prior-{}", i + 1),
            Domain::Target => write!(f, "target"),
        }
    }
}

/// The visual feature(s) a domain's classification hinges on (Table III).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FeatureKind {
    /// Colour differences (e.g. Peruvian lily).
    Color,
    /// Shape differences (e.g. Lenten rose petals/stamens).
    Shape,
    /// Colour and shape together (e.g. elephants, petunias).
    ColorAndShape,
    /// Size differences (e.g. aircraft models).
    Size,
}

impl fmt::Display for FeatureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FeatureKind::Color => write!(f, "Color"),
            FeatureKind::Shape => write!(f, "Shape"),
            FeatureKind::ColorAndShape => write!(f, "Color, Shape"),
            FeatureKind::Size => write!(f, "Size"),
        }
    }
}

/// Descriptive metadata of a domain, mirroring one row of Table III.
#[derive(Debug, Clone, PartialEq)]
pub struct DomainDescriptor {
    /// Which slot (prior index or target) the domain occupies.
    pub domain: Domain,
    /// Human-readable topic, e.g. "Elephant" or "Petunia".
    pub name: String,
    /// The discriminative features workers rely on.
    pub features: FeatureKind,
    /// The knowledge source / image corpus the tasks were drawn from.
    pub knowledge_source: String,
}

impl DomainDescriptor {
    /// Convenience constructor.
    pub fn new(
        domain: Domain,
        name: impl Into<String>,
        features: FeatureKind,
        knowledge_source: impl Into<String>,
    ) -> Self {
        Self {
            domain,
            name: name.into(),
            features,
            knowledge_source: knowledge_source.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(Domain::Prior(0).to_string(), "prior-1");
        assert_eq!(Domain::Target.to_string(), "target");
        assert_eq!(FeatureKind::ColorAndShape.to_string(), "Color, Shape");
        assert_eq!(FeatureKind::Size.to_string(), "Size");
    }

    #[test]
    fn descriptor_construction() {
        let d = DomainDescriptor::new(
            Domain::Prior(0),
            "Elephant",
            FeatureKind::ColorAndShape,
            "Animal",
        );
        assert_eq!(d.name, "Elephant");
        assert_eq!(d.domain, Domain::Prior(0));
        assert_eq!(d.knowledge_source, "Animal");
    }

    #[test]
    fn domains_are_ordered() {
        let mut v = vec![Domain::Target, Domain::Prior(1), Domain::Prior(0)];
        v.sort();
        assert_eq!(v, vec![Domain::Prior(0), Domain::Prior(1), Domain::Target]);
    }

    #[test]
    fn every_feature_kind_has_a_table_label() {
        assert_eq!(FeatureKind::Color.to_string(), "Color");
        assert_eq!(FeatureKind::Shape.to_string(), "Shape");
        assert_eq!(Domain::Prior(9).to_string(), "prior-10");
    }
}
