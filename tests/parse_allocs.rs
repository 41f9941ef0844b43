//! Heap allocations of the Verilog front end, counted by a global
//! allocator. This binary holds a single test so that no other test
//! thread allocates while a count is taken.
//!
//! On every emitted paper benchmark, unlocked and ERA-locked, `tokenize`
//! allocates at most twice (its token vector, sized from the source
//! length, and at most one regrowth), and `parse_verilog` allocates at
//! most 1.5 times what a `clone()` of the parsed module does: the owned
//! names and arena the `Module` keeps, plus the growth of its vectors and
//! maps, and no per-token garbage.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use mlrl::locking::era::{era_lock, EraConfig};
use mlrl::rtl::bench_designs::{generate, paper_benchmarks};
use mlrl::rtl::emit::emit_verilog;
use mlrl::rtl::lexer::tokenize;
use mlrl::rtl::parser::parse_verilog;
use mlrl::rtl::visit;

/// Counts every `alloc`, `alloc_zeroed` and `realloc` call.
struct Counting;

static CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counter is only bookkeeping.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static HEAP: Counting = Counting;

/// Allocation calls made while running `f`.
fn count<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = CALLS.load(Ordering::Relaxed);
    let out = f();
    (out, CALLS.load(Ordering::Relaxed) - before)
}

#[test]
fn front_end_allocations_stay_within_budget() {
    let mut sources = Vec::new();
    for spec in paper_benchmarks() {
        let mut m = generate(&spec, 7);
        sources.push((spec.name.to_string(), emit_verilog(&m).expect("emit")));
        let bits = (visit::binary_ops(&m).len() / 2).max(1);
        era_lock(&mut m, &EraConfig::new(bits, 7_017)).expect("era");
        sources.push((
            format!("{} (era)", spec.name),
            emit_verilog(&m).expect("emit"),
        ));
    }
    let mut report = String::new();
    let mut worst = 0.0f64;
    for (name, src) in &sources {
        let (tokens, lex) = count(|| tokenize(src).expect("lexes"));
        drop(tokens);
        let (module, parse) = count(|| parse_verilog(src).expect("parses"));
        let (copy, clone) = count(|| module.clone());
        drop(copy);
        let ratio = parse as f64 / clone as f64;
        worst = worst.max(ratio);
        report.push_str(&format!(
            "{name}: {} bytes, tokenize {lex}, parse {parse}, clone {clone}, ratio {ratio:.2}\n",
            src.len()
        ));
        assert!(lex <= 2, "tokenize allocated {lex} times\n{report}");
        assert!(
            ratio <= 1.5,
            "parse/clone allocation ratio {ratio:.2}\n{report}"
        );
    }
    println!("{report}worst parse/clone ratio {worst:.2}");
}
