module sctbench/benchmark

go 1.23

require sctbench v0.0.0

replace sctbench => ../
