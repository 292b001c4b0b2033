module github.com/hpcnet/fobs/benchmark

go 1.22

require github.com/hpcnet/fobs v0.0.0

replace github.com/hpcnet/fobs => ../
