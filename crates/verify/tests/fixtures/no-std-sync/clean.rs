//! The clean twin: the std::sync items that remain welcome — `Arc`,
//! atomics, channels — and the parking_lot shim itself.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

pub struct Table {
    values: Arc<Mutex<Vec<u64>>>,
    index: RwLock<Vec<usize>>,
    epoch: AtomicU64,
}

pub fn bump(table: &Table) -> u64 {
    let (_tx, _rx) = mpsc::channel::<u64>();
    table.epoch.fetch_add(1, Ordering::Relaxed)
}
