//! The named model registry behind `/v1/models`.
//!
//! A map of named entries, each holding one `Arc<TrainedModel>`: a
//! request resolves a loaded model by name and runs its forward on the
//! `Arc` it got.
//!
//! `POST /v1/models/{name}/reload` swaps the entry's `Arc` under the
//! registry lock, so the swap is atomic with respect to concurrent
//! resolves. A request that resolved before the swap keeps its clone
//! of the old `Arc` and finishes on the model it started with.

use ir_fusion::TrainedModel;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// One named entry: the model its requests run on and what
/// `GET /v1/models` says about it.
struct Entry {
    model: Arc<TrainedModel>,
    /// Architecture display name (stable across reloads of the same
    /// architecture; refreshed on every reload).
    architecture: String,
    /// Trained parameter scalars.
    params: usize,
    /// Completed reloads of this entry (0 for the startup model).
    reloads: u64,
}

/// A summary row of one registry entry (rendered by `GET /v1/models`).
#[derive(Debug, Clone)]
pub struct ModelInfo {
    /// Registry name (`default` for the startup model).
    pub name: String,
    /// Architecture display name (e.g. `IR-Fusion`).
    pub architecture: String,
    /// Trained parameter scalars.
    pub params: usize,
    /// Completed reloads of this entry.
    pub reloads: u64,
}

/// Named, hot-swappable trained models.
pub struct ModelRegistry {
    entries: Mutex<BTreeMap<String, Entry>>,
}

impl std::fmt::Debug for ModelRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ModelRegistry({} models)", self.len())
    }
}

impl ModelRegistry {
    /// A registry holding `initial` under the name `default`.
    #[must_use]
    pub fn new(initial: TrainedModel) -> Self {
        let registry = ModelRegistry {
            entries: Mutex::new(BTreeMap::new()),
        };
        registry.reload("default", initial);
        registry
    }

    /// Number of loaded models.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// `true` when no model is loaded (never the case today — the
    /// registry is only constructed with an initial model).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The model serving `name` (a cheap `Arc` clone the request keeps
    /// across any later reload). `Err` carries the sorted names of the
    /// models that ARE loaded, for the error envelope.
    ///
    /// # Errors
    ///
    /// Returns the list of loaded model names when `name` is unknown.
    pub fn resolve(&self, name: &str) -> Result<Arc<TrainedModel>, Vec<String>> {
        let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        match entries.get(name) {
            Some(entry) => Ok(Arc::clone(&entry.model)),
            None => Err(entries.keys().cloned().collect()),
        }
    }

    /// Loads `model` under `name`: an existing entry has its model
    /// swapped (requests already resolved keep the model they got), a
    /// new name gets a fresh entry. Returns the entry's total reload
    /// count.
    pub fn reload(&self, name: &str, model: TrainedModel) -> u64 {
        let architecture = model.model.name().to_string();
        let params = model.store.num_scalars();
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        match entries.get_mut(name) {
            Some(entry) => {
                entry.model = Arc::new(model);
                entry.architecture = architecture;
                entry.params = params;
                entry.reloads += 1;
                entry.reloads
            }
            None => {
                entries.insert(
                    name.to_string(),
                    Entry {
                        model: Arc::new(model),
                        architecture,
                        params,
                        reloads: 0,
                    },
                );
                0
            }
        }
    }

    /// Summaries of every entry, name-sorted (deterministic listing).
    #[must_use]
    pub fn list(&self) -> Vec<ModelInfo> {
        let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        entries
            .iter()
            .map(|(name, entry)| ModelInfo {
                name: name.clone(),
                architecture: entry.architecture.clone(),
                params: entry.params,
                reloads: entry.reloads,
            })
            .collect()
    }
}

/// `true` when `name` is usable as a registry key in a URL path:
/// nonempty, at most 64 bytes, `[A-Za-z0-9._-]` only.
#[must_use]
pub fn valid_model_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-')
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir_fusion::{FusionConfig, IrFusionPipeline};
    use irf_data::Dataset;
    use irf_models::ModelKind;

    fn tiny_model() -> TrainedModel {
        let config = FusionConfig::tiny();
        let dataset = Dataset::generate(2, 2, 1, 7);
        ir_fusion::train(ModelKind::IrEdge, &dataset, &config)
    }

    #[test]
    fn registry_holds_one_model_per_name() {
        let registry = ModelRegistry::new(tiny_model());
        assert_eq!(registry.len(), 1);
        let first = registry.resolve("default").expect("default exists");
        let again = registry.resolve("default").expect("default exists");
        assert!(Arc::ptr_eq(&first, &again), "one model per name");
    }

    #[test]
    fn unknown_models_report_the_loaded_names() {
        let registry = ModelRegistry::new(tiny_model());
        let err = registry.resolve("nope").expect_err("unknown");
        assert_eq!(err, vec!["default".to_string()]);
    }

    #[test]
    fn reload_swaps_the_model_and_counts() {
        let registry = ModelRegistry::new(tiny_model());
        let before = registry.resolve("default").expect("exists");
        assert_eq!(registry.reload("default", tiny_model()), 1);
        let after = registry.resolve("default").expect("exists");
        assert!(!Arc::ptr_eq(&before, &after), "model must change");
        assert_eq!(registry.reload("alt", tiny_model()), 0);
        assert_eq!(registry.len(), 2);
        let names: Vec<String> = registry.list().into_iter().map(|m| m.name).collect();
        assert_eq!(names, vec!["alt".to_string(), "default".to_string()]);
    }

    #[test]
    fn a_request_resolved_before_a_reload_finishes_on_its_model() {
        let config = FusionConfig::tiny();
        let dataset = Dataset::generate(2, 2, 1, 7);
        let first = ir_fusion::train(ModelKind::IrEdge, &dataset, &config);
        let mut longer = config;
        longer.train.epochs += 1;
        let second = ir_fusion::train(ModelKind::IrEdge, &dataset, &longer);
        let pipeline = IrFusionPipeline::new(config);
        let stack = pipeline
            .stack_builder()
            .bypass_cache()
            .prepare(&dataset.designs[0].grid)
            .expect("grid has pads");
        let from_first = pipeline.predict(&first, &stack);
        let from_second = pipeline.predict(&second, &stack);
        assert_ne!(from_first, from_second, "models must actually differ");

        let registry = ModelRegistry::new(first);
        let in_flight = registry.resolve("default").expect("exists");
        registry.reload("default", second);
        assert_eq!(pipeline.predict(&in_flight, &stack), from_first);
        let fresh = registry.resolve("default").expect("exists");
        assert_eq!(
            pipeline.predict(&fresh, &stack),
            from_second,
            "the swap must be visible to the next resolve"
        );
    }

    #[test]
    fn model_names_are_validated() {
        assert!(valid_model_name("default"));
        assert!(valid_model_name("exp-2.b_1"));
        assert!(!valid_model_name(""));
        assert!(!valid_model_name("a/b"));
        assert!(!valid_model_name("x".repeat(65).as_str()));
        assert!(!valid_model_name("sp ace"));
    }
}
