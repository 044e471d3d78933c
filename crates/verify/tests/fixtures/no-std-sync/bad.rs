//! Trips `no-std-sync`: std locks bypass the audited parking_lot shim.

use std::sync::{Arc, Mutex};

pub struct Table {
    values: Arc<Mutex<Vec<u64>>>,
    index: std::sync::RwLock<Vec<usize>>,
}
