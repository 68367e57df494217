module camus/benchmark

go 1.22

require camus v0.0.0

replace camus => ../
