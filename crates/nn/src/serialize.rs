//! Self-contained binary checkpoints for a [`ParamStore`].
//!
//! Format (little-endian):
//!
//! ```text
//! magic  b"IRFW"                u32 version (1)
//! u32 param count
//! per parameter:
//!   u32 name length, name bytes (UTF-8)
//!   4 x u32 shape
//!   numel x f32 values
//! ```

use crate::param::{ParamId, ParamStore};
use crate::tensor::Tensor;
use std::error::Error;
use std::fmt;
use std::io::{Read, Write};

const MAGIC: &[u8; 4] = b"IRFW";
const VERSION: u32 = 1;

/// Error loading a checkpoint.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The stream is not an `IRFW` checkpoint.
    BadMagic,
    /// Unsupported version number.
    BadVersion(u32),
    /// Checkpoint does not match the store (count, name or shape).
    Mismatch(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "i/o error: {e}"),
            CheckpointError::BadMagic => write!(f, "not an IRFW checkpoint"),
            CheckpointError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            CheckpointError::Mismatch(m) => write!(f, "checkpoint mismatch: {m}"),
        }
    }
}

impl Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// Writes all parameters to `w`. A `&mut` writer may be passed.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn save<W: Write>(store: &ParamStore, mut w: W) -> Result<(), CheckpointError> {
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(
        &u32::try_from(store.len())
            .expect("param count fits u32")
            .to_le_bytes(),
    )?;
    for (_, name, value) in store.iter() {
        let bytes = name.as_bytes();
        w.write_all(
            &u32::try_from(bytes.len())
                .expect("name fits u32")
                .to_le_bytes(),
        )?;
        w.write_all(bytes)?;
        for d in value.shape() {
            w.write_all(&u32::try_from(d).expect("dim fits u32").to_le_bytes())?;
        }
        for v in value.data() {
            w.write_all(&v.to_le_bytes())?;
        }
    }
    Ok(())
}

/// Loads parameter values into an existing store whose layout (count,
/// names, shapes) must match the checkpoint. A `&mut` reader may be
/// passed.
///
/// # Errors
///
/// Returns [`CheckpointError::Mismatch`] when the store layout and the
/// checkpoint disagree, and propagates I/O and format errors.
pub fn load<R: Read>(store: &mut ParamStore, mut r: R) -> Result<(), CheckpointError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = read_u32(&mut r)?;
    if version != VERSION {
        return Err(CheckpointError::BadVersion(version));
    }
    let count = read_u32(&mut r)? as usize;
    if count != store.len() {
        return Err(CheckpointError::Mismatch(format!(
            "checkpoint has {count} params, store has {}",
            store.len()
        )));
    }
    for i in 0..count {
        let id = ParamId(i);
        // The length comes from the file: compare it with the name it
        // has to equal before allocating for it.
        let name_len = read_u32(&mut r)? as usize;
        if name_len != store.name(id).len() {
            return Err(CheckpointError::Mismatch(format!(
                "param {i} is '{}' in store but its checkpoint name is {name_len} bytes long",
                store.name(id)
            )));
        }
        let mut name = vec![0u8; name_len];
        r.read_exact(&mut name)?;
        let name = String::from_utf8(name)
            .map_err(|_| CheckpointError::Mismatch("non-utf8 parameter name".into()))?;
        if name != store.name(id) {
            return Err(CheckpointError::Mismatch(format!(
                "param {i} is '{}' in store but '{name}' in checkpoint",
                store.name(id)
            )));
        }
        let mut shape = [0usize; 4];
        for d in &mut shape {
            *d = read_u32(&mut r)? as usize;
        }
        if shape != store.value(id).shape() {
            return Err(CheckpointError::Mismatch(format!(
                "param '{name}' shape {:?} vs checkpoint {shape:?}",
                store.value(id).shape()
            )));
        }
        let numel: usize = shape.iter().product();
        let mut data = vec![0f32; numel];
        for v in &mut data {
            let mut b = [0u8; 4];
            r.read_exact(&mut b)?;
            *v = f32::from_le_bytes(b);
        }
        *store.value_mut(id) = Tensor::from_vec(shape, data);
    }
    Ok(())
}

fn read_u32<R: Read>(r: &mut R) -> Result<u32, CheckpointError> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::uniform;

    fn sample_store() -> ParamStore {
        let mut s = ParamStore::new();
        s.register("a.w", uniform([2, 3, 3, 3], -1.0, 1.0, 5));
        s.register("a.b", uniform([1, 2, 1, 1], -1.0, 1.0, 6));
        s
    }

    #[test]
    fn save_load_roundtrip() {
        let src = sample_store();
        let mut buf = Vec::new();
        save(&src, &mut buf).expect("save");
        let mut dst = sample_store();
        // perturb before loading
        dst.value_mut(ParamId(0)).data_mut()[0] = 42.0;
        load(&mut dst, buf.as_slice()).expect("load");
        assert_eq!(src.value(ParamId(0)), dst.value(ParamId(0)));
        assert_eq!(src.value(ParamId(1)), dst.value(ParamId(1)));
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut dst = sample_store();
        let err = load(&mut dst, &b"NOPE"[..]).unwrap_err();
        assert!(matches!(err, CheckpointError::BadMagic));
    }

    #[test]
    fn mismatched_layout_is_rejected() {
        let src = sample_store();
        let mut buf = Vec::new();
        save(&src, &mut buf).expect("save");
        let mut other = ParamStore::new();
        other.register("different", Tensor::zeros([2, 3, 3, 3]));
        let err = load(&mut other, buf.as_slice()).unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch(_)));
    }

    #[test]
    fn truncated_stream_is_io_error() {
        let src = sample_store();
        let mut buf = Vec::new();
        save(&src, &mut buf).expect("save");
        buf.truncate(buf.len() / 2);
        let mut dst = sample_store();
        let err = load(&mut dst, buf.as_slice()).unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)));
    }
}
