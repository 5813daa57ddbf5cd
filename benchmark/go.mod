module floc/benchmark

go 1.22

require floc v0.0.0

replace floc => ../
