//! fixture_hash — prints [`snap_bench::fixture_hashes`], one
//! `name = 0x…` line per pinned kernel output.

fn main() {
    for (name, hash) in snap_bench::fixture_hashes() {
        println!("{name} = {hash:#018x}");
    }
}
