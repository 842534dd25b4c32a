module tkij/benchmark

go 1.22

require tkij v0.0.0

replace tkij => ../
