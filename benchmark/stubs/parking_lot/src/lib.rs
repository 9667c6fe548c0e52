//! Stand-in for the one `parking_lot` item the measured crates use:
//! a [`Mutex`] whose `lock` returns the guard directly. It wraps
//! `std::sync::Mutex` and, like parking_lot, has no poisoning.

use std::sync::{MutexGuard, PoisonError};

/// `parking_lot::Mutex` over the standard mutex, without poisoning.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// A new unlocked mutex.
    pub const fn new(value: T) -> Self {
        Self(std::sync::Mutex::new(value))
    }

    /// Consumes the mutex and returns its value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Blocks until the lock is held.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The value, through exclusive access to the mutex.
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}
