// R9 fixture: library code outside exec::parallel sizing a fan-out
// from the machine's core count, not from the query's Parallelism.
pub fn workers() -> usize {
    std::thread::available_parallelism() // line 4
        .map(|n| n.get())
        .unwrap_or(2)
}

#[cfg(test)]
mod tests {
    // Tests may ask the machine how many cores it has.
    fn cores() -> usize {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }
}
