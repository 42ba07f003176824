//! Whole-bundle checkpoints for a [`TrainedModel`]: architecture id,
//! hyperparameters, fusion metadata, and the parameter blob.
//!
//! Format (little-endian): magic `IRFM`, version `u32`, model-kind id
//! `u32`, in-channels `u32`, base-channels `u32`, seed `u64`, residual
//! flag `u8`, label scale `f32`, one reserved `u8` that must be 0
//! (byte 33, version >= 2), followed by the [`irf_nn::serialize`]
//! parameter stream.
//!
//! The reserved byte used to select a reduced-precision forward
//! (1 = f16, 2 = int8). Those modes are gone, and a file that asks for
//! one is refused rather than silently served at f32. Version-1
//! streams (no such byte) load as before.

use crate::train::TrainedModel;
use irf_models::{build_model, ModelConfig, ModelKind};
use irf_nn::serialize::{self, CheckpointError};
use std::io::{Read, Write};

const MAGIC: &[u8; 4] = b"IRFM";
const VERSION: u32 = 2;

/// Largest `in_channels` / `base_channels` a checkpoint header may
/// carry. [`load_model`] sizes every weight tensor from the two before
/// it has read a single weight, so they are bounded here: 64 is the
/// base width of the full-size U-Nets the paper compares against, and
/// this repository trains at 6 wide on 11 input channels.
pub const MAX_CHECKPOINT_CHANNELS: usize = 64;

/// Saves a trained bundle; load it back with [`load_model`].
/// A `&mut` writer may be passed.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn save_model<W: Write>(
    trained: &TrainedModel,
    kind: ModelKind,
    config: ModelConfig,
    mut w: W,
) -> Result<(), CheckpointError> {
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&kind.id().to_le_bytes())?;
    w.write_all(
        &u32::try_from(config.in_channels)
            .expect("channels fit u32")
            .to_le_bytes(),
    )?;
    w.write_all(
        &u32::try_from(config.base_channels)
            .expect("channels fit u32")
            .to_le_bytes(),
    )?;
    w.write_all(&config.seed.to_le_bytes())?;
    w.write_all(&[u8::from(trained.residual)])?;
    w.write_all(&trained.label_scale.to_le_bytes())?;
    w.write_all(&[0u8])?; // reserved
    serialize::save(&trained.store, w)
}

/// Loads a bundle saved by [`save_model`], rebuilding the architecture
/// and restoring the trained parameters. A `&mut` reader may be
/// passed.
///
/// # Errors
///
/// Returns [`CheckpointError::BadMagic`] / [`CheckpointError::BadVersion`]
/// for foreign streams, [`CheckpointError::Mismatch`] for unknown model
/// ids, channel counts outside `1..=`[`MAX_CHECKPOINT_CHANNELS`] and a
/// non-zero reserved byte, and propagates parameter-stream errors.
pub fn load_model<R: Read>(mut r: R) -> Result<TrainedModel, CheckpointError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = read_u32(&mut r)?;
    if version == 0 || version > VERSION {
        return Err(CheckpointError::BadVersion(version));
    }
    let kind_id = read_u32(&mut r)?;
    let kind = ModelKind::from_id(kind_id)
        .ok_or_else(|| CheckpointError::Mismatch(format!("unknown model kind id {kind_id}")))?;
    let in_channels = read_channels(&mut r, "in_channels")?;
    let base_channels = read_channels(&mut r, "base_channels")?;
    let mut seed_bytes = [0u8; 8];
    r.read_exact(&mut seed_bytes)?;
    let seed = u64::from_le_bytes(seed_bytes);
    let mut flag = [0u8; 1];
    r.read_exact(&mut flag)?;
    let residual = flag[0] != 0;
    let mut scale_bytes = [0u8; 4];
    r.read_exact(&mut scale_bytes)?;
    let label_scale = f32::from_le_bytes(scale_bytes);
    if version >= 2 {
        let mut reserved = [0u8; 1];
        r.read_exact(&mut reserved)?;
        if reserved[0] != 0 {
            let asked = match reserved[0] {
                1 => "the removed f16 mode",
                2 => "the removed int8 mode",
                _ => "an unknown precision",
            };
            return Err(CheckpointError::Mismatch(format!(
                "reserved byte 33 is {} ({asked}); only f32 checkpoints load",
                reserved[0]
            )));
        }
    }
    let (model, mut store) = build_model(
        kind,
        ModelConfig {
            in_channels,
            base_channels,
            seed,
            linear_head: residual,
        },
    );
    serialize::load(&mut store, r)?;
    Ok(TrainedModel {
        model,
        store,
        label_scale,
        residual,
        in_channels,
        loss_history: Vec::new(),
    })
}

fn read_channels<R: Read>(r: &mut R, what: &str) -> Result<usize, CheckpointError> {
    let value = read_u32(r)? as usize;
    if (1..=MAX_CHECKPOINT_CHANNELS).contains(&value) {
        Ok(value)
    } else {
        Err(CheckpointError::Mismatch(format!(
            "{what} {value} is outside 1..={MAX_CHECKPOINT_CHANNELS}"
        )))
    }
}

fn read_u32<R: Read>(r: &mut R) -> Result<u32, CheckpointError> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FusionConfig;
    use crate::evaluate::evaluate_model;
    use crate::pipeline::IrFusionPipeline;
    use crate::train::train;
    use irf_data::Dataset;

    #[test]
    fn bundle_roundtrip_preserves_everything() {
        let ds = Dataset::generate(2, 2, 1, 99);
        let mut cfg = FusionConfig::tiny();
        cfg.train.epochs = 1;
        let trained = train(ModelKind::IrFusion, &ds, &cfg);
        // The in_channels used by training are inferred from the data.
        let mut model_cfg = cfg.model;
        model_cfg.in_channels = 11;
        model_cfg.linear_head = trained.residual;
        let mut buf = Vec::new();
        save_model(&trained, ModelKind::IrFusion, model_cfg, &mut buf).expect("save");
        let loaded = load_model(buf.as_slice()).expect("load");
        assert_eq!(loaded.residual, trained.residual);
        assert_eq!(loaded.label_scale, trained.label_scale);
        assert_eq!((trained.in_channels, loaded.in_channels), (11, 11));
        // Same predictions bit-for-bit on the evaluation path.
        let pipeline = IrFusionPipeline::new(cfg);
        let a = evaluate_model(&trained, &ds, &pipeline);
        let b = evaluate_model(&loaded, &ds, &pipeline);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.mae_volts, y.mae_volts);
        }
    }

    /// An untrained IR-Fusion bundle with every header field fixed.
    fn fixed_bundle() -> (TrainedModel, ModelConfig) {
        let config = ModelConfig {
            in_channels: 11,
            base_channels: 6,
            seed: 0x0102_0304_0506_0708,
            linear_head: true,
        };
        let (model, store) = build_model(ModelKind::IrFusion, config);
        let trained = TrainedModel {
            model,
            store,
            label_scale: 1.5,
            residual: true,
            in_channels: config.in_channels,
            loss_history: Vec::new(),
        };
        (trained, config)
    }

    fn saved(trained: &TrainedModel, config: ModelConfig) -> Vec<u8> {
        let mut buf = Vec::new();
        save_model(trained, ModelKind::IrFusion, config, &mut buf).expect("save");
        buf
    }

    #[test]
    fn header_bytes_equal_a_fixed_golden_prefix() {
        let (trained, config) = fixed_bundle();
        let buf = saved(&trained, config);
        #[rustfmt::skip]
        let golden: [u8; 42] = [
            b'I', b'R', b'F', b'M', 2, 0, 0, 0,     // magic, version 2
            6, 0, 0, 0,                             // ModelKind::IrFusion
            11, 0, 0, 0, 6, 0, 0, 0,                // in / base channels
            8, 7, 6, 5, 4, 3, 2, 1,                 // seed
            1, 0, 0, 0xC0, 0x3F,                    // residual, 1.5f32
            0,                                      // byte 33: reserved
            b'I', b'R', b'F', b'W', 1, 0, 0, 0,     // parameter stream
        ];
        assert_eq!(buf[..42], golden);
    }

    #[test]
    fn version1_stream_loads_as_f32() {
        // A version-1 stream is the version-2 one without byte 33.
        let (trained, config) = fixed_bundle();
        let buf = saved(&trained, config);
        let mut v1 = Vec::with_capacity(buf.len() - 1);
        v1.extend_from_slice(&buf[..4]);
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&buf[8..33]);
        v1.extend_from_slice(&buf[34..]);
        let loaded = load_model(v1.as_slice()).expect("v1 load");
        assert_eq!(loaded.label_scale, trained.label_scale);
        assert_eq!(loaded.residual, trained.residual);
        // Saved again it is the version-2 file, weights included.
        assert_eq!(saved(&loaded, config), buf);
    }

    #[test]
    fn unknown_precision_tag_is_rejected() {
        let (trained, config) = fixed_bundle();
        let mut buf = saved(&trained, config);
        for (tag, names) in [(1u8, "f16"), (2, "int8"), (0xEE, "unknown")] {
            buf[33] = tag;
            match load_model(buf.as_slice()) {
                Err(CheckpointError::Mismatch(m)) => assert!(m.contains(names), "{m}"),
                other => panic!("tag {tag}: expected a mismatch, got {other:?}"),
            }
        }
        buf[33] = 0;
        load_model(buf.as_slice()).expect("tag 0 loads");
    }

    #[test]
    fn crafted_headers_end_in_a_typed_error() {
        let (trained, config) = fixed_bundle();
        let good = saved(&trained, config);
        // 42 header bytes + the parameter count; what follows is the
        // first parameter's name length.
        let mut long_name = good[..46].to_vec();
        long_name.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut wide = good[..34].to_vec();
        wide[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut no_input = good[..34].to_vec();
        no_input[12..16].copy_from_slice(&0u32.to_le_bytes());
        let mut just_over = good.clone();
        just_over[16..20].copy_from_slice(&(MAX_CHECKPOINT_CHANNELS as u32 + 1).to_le_bytes());
        for (what, bytes) in [
            ("name_len = u32::MAX", long_name),
            ("base_channels = u32::MAX", wide),
            ("in_channels = 0", no_input),
            ("base_channels = MAX + 1", just_over),
        ] {
            let result = load_model(bytes.as_slice());
            assert!(
                matches!(result, Err(CheckpointError::Mismatch(_))),
                "{what}: {result:?}"
            );
        }
    }

    #[test]
    fn foreign_streams_are_rejected() {
        assert!(matches!(
            load_model(&b"NOTAMODEL"[..]),
            Err(CheckpointError::BadMagic)
        ));
    }

    #[test]
    fn unknown_kind_is_reported() {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"IRFM");
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&999u32.to_le_bytes());
        buf.extend_from_slice(&[0u8; 32]);
        assert!(matches!(
            load_model(buf.as_slice()),
            Err(CheckpointError::Mismatch(_))
        ));
    }
}
