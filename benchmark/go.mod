module monetlite/benchmark

go 1.24

require monetlite v0.0.0

replace monetlite => ../
