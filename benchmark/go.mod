module distreach/benchmark

go 1.24

require distreach v0.0.0

replace distreach => ../
