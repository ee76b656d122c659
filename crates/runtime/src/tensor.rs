//! Packed arrays with reference-counted copy-on-write semantics.
//!
//! The Wolfram interpreter "uses a reference counting mechanism to determine
//! if copying is needed" (F5): mutating `a[[3]] = -20` after `b = a` must
//! not disturb `b`. [`Tensor`] reproduces that exactly — cloning shares
//! storage, and a mutation copies only when the storage is shared.

use crate::checked::resolve_part_index;
use crate::error::RuntimeError;
use crate::memory::record_tensor_copy;
use std::sync::Arc;

/// Element storage for a packed array.
#[derive(Debug, Clone, PartialEq)]
pub enum TensorData {
    /// Machine integers.
    I64(Vec<i64>),
    /// Machine reals.
    F64(Vec<f64>),
    /// Machine complex numbers as `(re, im)`.
    Complex(Vec<(f64, f64)>),
}

impl TensorData {
    /// Number of stored elements.
    pub fn len(&self) -> usize {
        match self {
            TensorData::I64(v) => v.len(),
            TensorData::F64(v) => v.len(),
            TensorData::Complex(v) => v.len(),
        }
    }

    /// Whether there are no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The element type name, matching the compiler's type vocabulary.
    pub fn element_type(&self) -> &'static str {
        match self {
            TensorData::I64(_) => "Integer64",
            TensorData::F64(_) => "Real64",
            TensorData::Complex(_) => "ComplexReal64",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Repr {
    shape: Vec<usize>,
    data: TensorData,
}

/// A reference-counted, copy-on-write packed array of rank >= 1.
///
/// # Examples
///
/// ```
/// use wolfram_runtime::Tensor;
/// let a = Tensor::from_i64(vec![1, 2, 3]);
/// let b = a.clone();               // shares storage
/// let mut a = a;
/// a.set_i64(2, -20).unwrap();      // copies, then writes (0-based offset)
/// assert_eq!(a.as_i64().unwrap(), &[1, 2, -20]);
/// assert_eq!(b.as_i64().unwrap(), &[1, 2, 3]);   // b unchanged
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor(Arc<Repr>);

impl Tensor {
    /// A rank-1 integer tensor.
    pub fn from_i64(data: Vec<i64>) -> Self {
        let shape = vec![data.len()];
        Tensor(Arc::new(Repr {
            shape,
            data: TensorData::I64(data),
        }))
    }

    /// A rank-1 real tensor.
    pub fn from_f64(data: Vec<f64>) -> Self {
        let shape = vec![data.len()];
        Tensor(Arc::new(Repr {
            shape,
            data: TensorData::F64(data),
        }))
    }

    /// A rank-1 complex tensor.
    pub fn from_complex(data: Vec<(f64, f64)>) -> Self {
        let shape = vec![data.len()];
        Tensor(Arc::new(Repr {
            shape,
            data: TensorData::Complex(data),
        }))
    }

    /// An arbitrary-rank tensor.
    ///
    /// # Errors
    ///
    /// Returns a type error if the shape does not multiply out to the data
    /// length, or the shape is empty.
    pub fn with_shape(shape: Vec<usize>, data: TensorData) -> Result<Self, RuntimeError> {
        let expected: usize = shape.iter().product();
        if shape.is_empty() {
            return Err(RuntimeError::Type("tensor rank must be >= 1".into()));
        }
        if expected != data.len() {
            return Err(RuntimeError::Type(format!(
                "shape {shape:?} needs {expected} elements, got {}",
                data.len()
            )));
        }
        Ok(Tensor(Arc::new(Repr { shape, data })))
    }

    /// The dimensions.
    pub fn shape(&self) -> &[usize] {
        &self.0.shape
    }

    /// The rank (number of dimensions).
    pub fn rank(&self) -> usize {
        self.0.shape.len()
    }

    /// The length of the first dimension (Wolfram `Length`).
    pub fn length(&self) -> usize {
        self.0.shape[0]
    }

    /// Total number of elements.
    pub fn flat_len(&self) -> usize {
        self.0.data.len()
    }

    /// The raw element storage.
    pub fn data(&self) -> &TensorData {
        &self.0.data
    }

    /// Whether two handles share storage (used by alias analysis tests).
    pub fn shares_storage(&self, other: &Tensor) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// The integer elements, if integer-typed.
    pub fn as_i64(&self) -> Option<&[i64]> {
        match &self.0.data {
            TensorData::I64(v) => Some(v),
            _ => None,
        }
    }

    /// The real elements, if real-typed.
    pub fn as_f64(&self) -> Option<&[f64]> {
        match &self.0.data {
            TensorData::F64(v) => Some(v),
            _ => None,
        }
    }

    /// The integer elements, or a type error.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Type`] when the storage is not integer. Execution
    /// engines use this instead of panicking so a mistyped tensor surfaces
    /// as a reportable runtime error (e.g. to the differential fuzzer)
    /// rather than aborting the process.
    pub fn expect_i64(&self) -> Result<&[i64], RuntimeError> {
        self.as_i64().ok_or_else(|| {
            RuntimeError::Type(format!(
                "expected Integer64 tensor storage, got {}",
                self.data().element_type()
            ))
        })
    }

    /// The real elements, or a type error (see [`Tensor::expect_i64`]).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Type`] when the storage is not real — notably for
    /// complex tensors, which [`Tensor::to_f64_tensor`] leaves untouched.
    pub fn expect_f64(&self) -> Result<&[f64], RuntimeError> {
        self.as_f64().ok_or_else(|| {
            RuntimeError::Type(format!(
                "expected Real64 tensor storage, got {}",
                self.data().element_type()
            ))
        })
    }

    /// Copy-on-write access to the representation: copies if shared,
    /// recording the copy in [`crate::memory`].
    fn make_mut(&mut self) -> &mut Repr {
        if Arc::strong_count(&self.0) > 1 {
            record_tensor_copy();
        }
        Arc::make_mut(&mut self.0)
    }

    /// Mutable access to the raw data, performing copy-on-write.
    pub fn data_mut(&mut self) -> &mut TensorData {
        &mut self.make_mut().data
    }

    /// Reads element `offset` (0-based flat offset) as a generic scalar.
    pub fn get_scalar(&self, offset: usize) -> Option<crate::value::Value> {
        use crate::value::Value;
        match &self.0.data {
            TensorData::I64(v) => v.get(offset).map(|&x| Value::I64(x)),
            TensorData::F64(v) => v.get(offset).map(|&x| Value::F64(x)),
            TensorData::Complex(v) => v.get(offset).map(|&(re, im)| Value::Complex(re, im)),
        }
    }

    /// Resolves a 1-based (possibly negative) Wolfram index on the first
    /// dimension to a 0-based offset.
    pub fn resolve_index(&self, index: i64) -> Result<usize, RuntimeError> {
        resolve_part_index(index, self.length())
    }

    /// Writes an integer element at a 0-based flat offset (copy-on-write).
    ///
    /// # Errors
    ///
    /// Type error if not integer-typed; part error if out of range.
    pub fn set_i64(&mut self, offset: usize, value: i64) -> Result<(), RuntimeError> {
        let len = self.flat_len();
        match self.data_mut() {
            TensorData::I64(v) => {
                *v.get_mut(offset).ok_or(RuntimeError::PartOutOfRange {
                    index: offset as i64 + 1,
                    length: len,
                })? = value;
                Ok(())
            }
            _ => Err(RuntimeError::Type("set_i64 on non-integer tensor".into())),
        }
    }

    /// Writes a real element at a 0-based flat offset (copy-on-write).
    ///
    /// # Errors
    ///
    /// Type error if not real-typed; part error if out of range.
    pub fn set_f64(&mut self, offset: usize, value: f64) -> Result<(), RuntimeError> {
        let len = self.flat_len();
        match self.data_mut() {
            TensorData::F64(v) => {
                *v.get_mut(offset).ok_or(RuntimeError::PartOutOfRange {
                    index: offset as i64 + 1,
                    length: len,
                })? = value;
                Ok(())
            }
            _ => Err(RuntimeError::Type("set_f64 on non-real tensor".into())),
        }
    }

    /// `Part` on the first dimension: for rank 1 returns a scalar value, for
    /// higher ranks returns the sliced sub-tensor (which copies the slice,
    /// as packed-array Part does).
    pub fn part(&self, index: i64) -> Result<crate::value::Value, RuntimeError> {
        use crate::value::Value;
        let ix = self.resolve_index(index)?;
        if self.rank() == 1 {
            Ok(self.get_scalar(ix).expect("index checked"))
        } else {
            let stride: usize = self.0.shape[1..].iter().product();
            let lo = ix * stride;
            let hi = lo + stride;
            let data = match &self.0.data {
                TensorData::I64(v) => TensorData::I64(v[lo..hi].to_vec()),
                TensorData::F64(v) => TensorData::F64(v[lo..hi].to_vec()),
                TensorData::Complex(v) => TensorData::Complex(v[lo..hi].to_vec()),
            };
            Ok(Value::Tensor(Tensor::with_shape(
                self.0.shape[1..].to_vec(),
                data,
            )?))
        }
    }

    /// Converts integer storage to real storage (type promotion).
    pub fn to_f64_tensor(&self) -> Tensor {
        match &self.0.data {
            TensorData::I64(v) => {
                let data = v.iter().map(|&x| x as f64).collect();
                Tensor(Arc::new(Repr {
                    shape: self.0.shape.clone(),
                    data: TensorData::F64(data),
                }))
            }
            _ => self.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::{reset_stats, stats};
    use crate::value::Value;

    #[test]
    fn copy_on_write_preserves_aliases() {
        // The paper's example: a={1,2,3}; b=a; a[[3]]=-20; b => {1,2,3}.
        let a = Tensor::from_i64(vec![1, 2, 3]);
        let b = a.clone();
        assert!(a.shares_storage(&b));
        let mut a = a;
        a.set_i64(2, -20).unwrap();
        assert!(!a.shares_storage(&b));
        assert_eq!(a.as_i64().unwrap(), &[1, 2, -20]);
        assert_eq!(b.as_i64().unwrap(), &[1, 2, 3]);
    }

    #[test]
    fn unshared_mutation_does_not_copy() {
        reset_stats();
        let mut a = Tensor::from_f64(vec![1.0, 2.0]);
        a.set_f64(0, 9.0).unwrap();
        assert_eq!(stats().tensor_copies, 0);
        let b = a.clone();
        a.set_f64(1, 8.0).unwrap();
        assert_eq!(stats().tensor_copies, 1);
        assert_eq!(b.as_f64().unwrap(), &[9.0, 2.0]);
    }

    #[test]
    fn shapes_validated() {
        assert!(Tensor::with_shape(vec![2, 3], TensorData::I64(vec![0; 6])).is_ok());
        assert!(Tensor::with_shape(vec![2, 3], TensorData::I64(vec![0; 5])).is_err());
        assert!(Tensor::with_shape(vec![], TensorData::I64(vec![])).is_err());
    }

    #[test]
    fn part_scalar_and_slice() {
        let t = Tensor::with_shape(vec![2, 2], TensorData::I64(vec![1, 2, 3, 4])).unwrap();
        let row = t.part(2).unwrap();
        match row {
            Value::Tensor(r) => {
                assert_eq!(r.shape(), &[2]);
                assert_eq!(r.as_i64().unwrap(), &[3, 4]);
            }
            other => panic!("expected tensor, got {other:?}"),
        }
        let v = Tensor::from_i64(vec![10, 20, 30]);
        assert_eq!(v.part(-1).unwrap(), Value::I64(30));
        assert!(v.part(0).is_err());
        assert!(v.part(4).is_err());
    }

    #[test]
    fn promotion() {
        let t = Tensor::from_i64(vec![1, 2]);
        let f = t.to_f64_tensor();
        assert_eq!(f.as_f64().unwrap(), &[1.0, 2.0]);
        assert_eq!(f.shape(), t.shape());
    }

    #[test]
    fn element_types() {
        assert_eq!(Tensor::from_i64(vec![1]).data().element_type(), "Integer64");
        assert_eq!(Tensor::from_f64(vec![1.0]).data().element_type(), "Real64");
        assert_eq!(
            Tensor::from_complex(vec![(0.0, 1.0)]).data().element_type(),
            "ComplexReal64"
        );
    }
}
