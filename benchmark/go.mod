module legodb/benchmark

go 1.22

require legodb v0.0.0

replace legodb => ../
