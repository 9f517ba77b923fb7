//! Model-aware synchronization primitives. Inside [`crate::model`] they are
//! mediated by the deterministic scheduler; outside they degrade to their
//! `std::sync` counterparts, so code compiled against this shim still runs
//! normally when no model execution is active.
//!
//! The lock API mirrors `parking_lot` (no poisoning, guard from `lock()`
//! directly) because that is what this workspace uses in production; it is
//! the one deliberate divergence from upstream loom's `std`-shaped API.

use std::ops::{Deref, DerefMut};
use std::sync::Mutex as StdMutex;
use std::sync::MutexGuard as StdMutexGuard;

use crate::rt;

pub use std::sync::Arc;

/// A mutual-exclusion lock checked by the model (parking_lot-shaped API).
pub struct Mutex<T: ?Sized> {
    cell: rt::ModelRef,
    data: StdMutex<T>,
}

impl<T> Mutex<T> {
    /// Create a new mutex.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex {
            cell: rt::ModelRef::new(),
            data: StdMutex::new(value),
        }
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.data.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking (in model time under the checker).
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let model = rt::mutex_lock(&self.cell);
        // Under the model the protocol above guarantees exclusivity, so
        // this inner lock is uncontended; outside it does the real work.
        let inner = self.data.lock().unwrap_or_else(|e| e.into_inner());
        MutexGuard {
            cell: &self.cell,
            inner: Some(inner),
            model,
        }
    }

    /// Try to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match rt::mutex_try_lock(&self.cell) {
            Some(false) => None,
            Some(true) => {
                let inner = self.data.lock().unwrap_or_else(|e| e.into_inner());
                Some(MutexGuard {
                    cell: &self.cell,
                    inner: Some(inner),
                    model: true,
                })
            }
            None => match self.data.try_lock() {
                Ok(inner) => Some(MutexGuard {
                    cell: &self.cell,
                    inner: Some(inner),
                    model: false,
                }),
                Err(std::sync::TryLockError::Poisoned(e)) => Some(MutexGuard {
                    cell: &self.cell,
                    inner: Some(e.into_inner()),
                    model: false,
                }),
                Err(std::sync::TryLockError::WouldBlock) => None,
            },
        }
    }

    /// Mutable access without locking (requires `&mut self`).
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Mutex<T> {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mutex").finish_non_exhaustive()
    }
}

/// RAII guard of [`Mutex::lock`].
pub struct MutexGuard<'a, T: ?Sized> {
    cell: &'a rt::ModelRef,
    inner: Option<StdMutexGuard<'a, T>>,
    model: bool,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present")
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Release the real lock before the model release publishes the
        // unlock to other model threads.
        self.inner = None;
        if self.model {
            rt::mutex_unlock(self.cell);
        }
    }
}

/// Model-aware atomic types with weak-memory semantics under the checker.
pub mod atomic {
    use super::rt;
    use std::sync::atomic as std_atomic;

    pub use std::sync::atomic::Ordering;

    macro_rules! atomic_impl {
        ($name:ident, $std:ident, $prim:ty, $doc:literal) => {
            #[doc = $doc]
            pub struct $name {
                std: std_atomic::$std,
                cell: rt::ModelRef,
            }

            impl $name {
                /// Create a new atomic with the given initial value.
                pub const fn new(value: $prim) -> $name {
                    $name {
                        std: std_atomic::$std::new(value),
                        cell: rt::ModelRef::new(),
                    }
                }

                fn init_bits(&self) -> u64 {
                    self.std.load(Ordering::Relaxed) as u64
                }

                /// Load the value with the given ordering.
                pub fn load(&self, order: Ordering) -> $prim {
                    match rt::atomic_load(&self.cell, || self.init_bits(), order) {
                        Some(bits) => bits as $prim,
                        None => self.std.load(order),
                    }
                }

                /// Store a value with the given ordering.
                pub fn store(&self, value: $prim, order: Ordering) {
                    if !rt::atomic_store(&self.cell, || self.init_bits(), value as u64, order) {
                        self.std.store(value, order);
                    }
                }

                /// Swap in a new value, returning the previous one.
                pub fn swap(&self, value: $prim, order: Ordering) -> $prim {
                    match rt::atomic_rmw(
                        &self.cell,
                        || self.init_bits(),
                        order,
                        order,
                        &mut |_| Some(value as u64),
                    ) {
                        Some((old, _)) => old as $prim,
                        None => self.std.swap(value, order),
                    }
                }

                /// Add to the value, returning the previous one.
                pub fn fetch_add(&self, delta: $prim, order: Ordering) -> $prim {
                    match rt::atomic_rmw(
                        &self.cell,
                        || self.init_bits(),
                        order,
                        order,
                        &mut |old| Some((old as $prim).wrapping_add(delta) as u64),
                    ) {
                        Some((old, _)) => old as $prim,
                        None => self.std.fetch_add(delta, order),
                    }
                }

                /// Subtract from the value, returning the previous one.
                pub fn fetch_sub(&self, delta: $prim, order: Ordering) -> $prim {
                    match rt::atomic_rmw(
                        &self.cell,
                        || self.init_bits(),
                        order,
                        order,
                        &mut |old| Some((old as $prim).wrapping_sub(delta) as u64),
                    ) {
                        Some((old, _)) => old as $prim,
                        None => self.std.fetch_sub(delta, order),
                    }
                }

                /// Compare-and-exchange: store `new` if the value is
                /// `current`, returning the previous value as Ok/Err.
                pub fn compare_exchange(
                    &self,
                    current: $prim,
                    new: $prim,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$prim, $prim> {
                    match rt::atomic_rmw(
                        &self.cell,
                        || self.init_bits(),
                        success,
                        failure,
                        &mut |old| (old as $prim == current).then_some(new as u64),
                    ) {
                        Some((old, true)) => Ok(old as $prim),
                        Some((old, false)) => Err(old as $prim),
                        None => self.std.compare_exchange(current, new, success, failure),
                    }
                }

                /// Fetch-and-update: retries `f` until the CAS succeeds or
                /// `f` returns `None`.
                pub fn fetch_update<F>(
                    &self,
                    set_order: Ordering,
                    fetch_order: Ordering,
                    mut f: F,
                ) -> Result<$prim, $prim>
                where
                    F: FnMut($prim) -> Option<$prim>,
                {
                    match rt::atomic_rmw(
                        &self.cell,
                        || self.init_bits(),
                        set_order,
                        fetch_order,
                        &mut |old| f(old as $prim).map(|v| v as u64),
                    ) {
                        Some((old, true)) => Ok(old as $prim),
                        Some((old, false)) => Err(old as $prim),
                        None => self.std.fetch_update(set_order, fetch_order, f),
                    }
                }

                /// Consume the atomic, returning the contained value.
                pub fn into_inner(self) -> $prim {
                    self.std.into_inner()
                }
            }

            impl Default for $name {
                fn default() -> $name {
                    $name::new(Default::default())
                }
            }

            impl std::fmt::Debug for $name {
                fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                    f.debug_tuple(stringify!($name))
                        .field(&self.load(Ordering::Relaxed))
                        .finish()
                }
            }
        };
    }

    atomic_impl!(AtomicU64, AtomicU64, u64, "Model-aware `AtomicU64`.");
    atomic_impl!(AtomicUsize, AtomicUsize, usize, "Model-aware `AtomicUsize`.");

    /// Model-aware `AtomicBool`.
    pub struct AtomicBool {
        std: std_atomic::AtomicBool,
        cell: rt::ModelRef,
    }

    impl AtomicBool {
        /// Create a new atomic bool.
        pub const fn new(value: bool) -> AtomicBool {
            AtomicBool {
                std: std_atomic::AtomicBool::new(value),
                cell: rt::ModelRef::new(),
            }
        }

        fn init_bits(&self) -> u64 {
            self.std.load(Ordering::Relaxed) as u64
        }

        /// Load the value with the given ordering.
        pub fn load(&self, order: Ordering) -> bool {
            match rt::atomic_load(&self.cell, || self.init_bits(), order) {
                Some(bits) => bits != 0,
                None => self.std.load(order),
            }
        }

        /// Store a value with the given ordering.
        pub fn store(&self, value: bool, order: Ordering) {
            if !rt::atomic_store(&self.cell, || self.init_bits(), value as u64, order) {
                self.std.store(value, order);
            }
        }

        /// Swap in a new value, returning the previous one.
        pub fn swap(&self, value: bool, order: Ordering) -> bool {
            match rt::atomic_rmw(
                &self.cell,
                || self.init_bits(),
                order,
                order,
                &mut |_| Some(value as u64),
            ) {
                Some((old, _)) => old != 0,
                None => self.std.swap(value, order),
            }
        }

        /// Compare-and-exchange on the boolean.
        pub fn compare_exchange(
            &self,
            current: bool,
            new: bool,
            success: Ordering,
            failure: Ordering,
        ) -> Result<bool, bool> {
            match rt::atomic_rmw(
                &self.cell,
                || self.init_bits(),
                success,
                failure,
                &mut |old| ((old != 0) == current).then_some(new as u64),
            ) {
                Some((old, true)) => Ok(old != 0),
                Some((old, false)) => Err(old != 0),
                None => self.std.compare_exchange(current, new, success, failure),
            }
        }

        /// Consume the atomic, returning the contained value.
        pub fn into_inner(self) -> bool {
            self.std.into_inner()
        }
    }

    impl Default for AtomicBool {
        fn default() -> AtomicBool {
            AtomicBool::new(false)
        }
    }

    impl std::fmt::Debug for AtomicBool {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_tuple("AtomicBool")
                .field(&self.load(Ordering::Relaxed))
                .finish()
        }
    }
}
