//! Runtime values and traps.

use std::fmt;

/// A runtime value: one memory cell.
///
/// The layout is two 8-byte words: the tag in word 0 and the payload in
/// word 1 (DESIGN.md §8d). With Rust's default layout `Func`'s payload
/// shares word 0 with a 4-byte tag, so the bytecode loop stored the tag
/// as 4 bytes and read word 0 back as 8, a load the store buffer cannot
/// forward.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C, u64)]
pub enum Value {
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Pointer: absolute cell address (0 is the null address).
    Ptr(usize),
    /// Function reference by function index.
    Func(u32),
    /// Uninitialized cell; reading one traps.
    Uninit,
}

impl Value {
    /// The integer contents.
    ///
    /// # Errors
    ///
    /// Traps on non-integer values (floats must be cast explicitly at the
    /// language level; lowering inserts the conversions, so reaching a
    /// `Float` here is a VM bug, but `Uninit` is a user error).
    pub fn as_int(self) -> Result<i64, Trap> {
        match self {
            Value::Int(v) => Ok(v),
            Value::Uninit => Err(Trap::UninitRead),
            other => Err(Trap::TypeConfusion(other.kind_name())),
        }
    }

    /// The float contents.
    ///
    /// # Errors
    ///
    /// Traps on non-float values.
    pub fn as_float(self) -> Result<f64, Trap> {
        match self {
            Value::Float(v) => Ok(v),
            Value::Uninit => Err(Trap::UninitRead),
            other => Err(Trap::TypeConfusion(other.kind_name())),
        }
    }

    /// Integer or float as f64 (arithmetic promotion).
    ///
    /// # Errors
    ///
    /// Traps on pointers, functions, and uninitialized cells.
    pub fn as_number(self) -> Result<f64, Trap> {
        match self {
            Value::Int(v) => Ok(v as f64),
            Value::Float(v) => Ok(v),
            Value::Uninit => Err(Trap::UninitRead),
            other => Err(Trap::TypeConfusion(other.kind_name())),
        }
    }

    /// The pointer address.
    ///
    /// # Errors
    ///
    /// Traps on non-pointers. Integer zero is accepted as the null pointer
    /// (C's `p = 0`).
    pub fn as_ptr(self) -> Result<usize, Trap> {
        match self {
            Value::Ptr(a) => Ok(a),
            Value::Int(0) => Ok(0),
            Value::Uninit => Err(Trap::UninitRead),
            other => Err(Trap::TypeConfusion(other.kind_name())),
        }
    }

    /// Truthiness for conditions: nonzero / non-null.
    ///
    /// # Errors
    ///
    /// Traps on uninitialized cells and function values.
    pub fn truthy(self) -> Result<bool, Trap> {
        match self {
            Value::Int(v) => Ok(v != 0),
            Value::Float(v) => Ok(v != 0.0),
            Value::Ptr(a) => Ok(a != 0),
            Value::Uninit => Err(Trap::UninitRead),
            Value::Func(_) => Err(Trap::TypeConfusion("function")),
        }
    }

    fn kind_name(self) -> &'static str {
        match self {
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Ptr(_) => "pointer",
            Value::Func(_) => "function",
            Value::Uninit => "uninit",
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Ptr(a) => write!(f, "ptr:{a}"),
            Value::Func(i) => write!(f, "fn:{i}"),
            Value::Uninit => write!(f, "uninit"),
        }
    }
}

/// A value printed by the program's `print` builtin (the observable output
/// stream, used by semantic-preservation tests).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PrintVal {
    /// Printed integer.
    Int(i64),
    /// Printed float.
    Float(f64),
}

impl fmt::Display for PrintVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrintVal::Int(v) => write!(f, "{v}"),
            PrintVal::Float(v) => write!(f, "{v}"),
        }
    }
}

/// A runtime error that aborts execution.
#[derive(Debug, Clone, PartialEq)]
pub enum Trap {
    /// Read of an uninitialized cell.
    UninitRead,
    /// A value of the wrong kind reached an operation.
    TypeConfusion(&'static str),
    /// Dereference of the null address.
    NullDeref,
    /// Address outside the allocated memory.
    OutOfBounds(usize),
    /// Integer division or remainder by zero.
    DivByZero,
    /// `assert(0)`.
    AssertFailed,
    /// Stack frame allocation exceeded the configured limit.
    StackOverflow,
    /// Call through a non-function value.
    NotAFunction,
    /// A non-void function fell off its end and the caller used the value.
    MissingReturn,
    /// The configured cycle budget was exhausted (runaway-loop guard).
    CycleLimit,
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trap::UninitRead => write!(f, "read of uninitialized value"),
            Trap::TypeConfusion(k) => write!(f, "unexpected {k} value"),
            Trap::NullDeref => write!(f, "null pointer dereference"),
            Trap::OutOfBounds(a) => write!(f, "address {a} out of bounds"),
            Trap::DivByZero => write!(f, "integer division by zero"),
            Trap::AssertFailed => write!(f, "assertion failed"),
            Trap::StackOverflow => write!(f, "stack overflow"),
            Trap::NotAFunction => write!(f, "call through a non-function value"),
            Trap::MissingReturn => write!(f, "function returned no value"),
            Trap::CycleLimit => write!(f, "cycle limit exceeded"),
        }
    }
}

impl std::error::Error for Trap {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_accessors() {
        assert_eq!(Value::Int(5).as_int().unwrap(), 5);
        assert_eq!(Value::Int(5).as_number().unwrap(), 5.0);
        assert!(Value::Float(1.0).as_int().is_err());
        assert_eq!(Value::Uninit.as_int(), Err(Trap::UninitRead));
    }

    #[test]
    fn null_pointer_interop() {
        assert_eq!(Value::Int(0).as_ptr().unwrap(), 0);
        assert!(Value::Int(1).as_ptr().is_err());
        assert_eq!(Value::Ptr(42).as_ptr().unwrap(), 42);
    }

    #[test]
    fn truthiness() {
        assert!(Value::Int(-1).truthy().unwrap());
        assert!(!Value::Int(0).truthy().unwrap());
        assert!(!Value::Float(0.0).truthy().unwrap());
        assert!(Value::Ptr(3).truthy().unwrap());
        assert!(!Value::Ptr(0).truthy().unwrap());
        assert!(Value::Uninit.truthy().is_err());
    }

    #[test]
    fn two_word_layout() {
        assert_eq!(std::mem::size_of::<Value>(), 16);
        assert_eq!(std::mem::align_of::<Value>(), 8);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Int(3).to_string(), "3");
        assert_eq!(PrintVal::Float(2.5).to_string(), "2.5");
        assert_eq!(Trap::DivByZero.to_string(), "integer division by zero");
    }
}
