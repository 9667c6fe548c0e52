//! Empty stand-in for `crossbeam`: `minispark` declares the dependency but calls nothing in it.
