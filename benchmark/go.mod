module sos/benchmark

go 1.24

require sos v0.0.0

replace sos => ../
