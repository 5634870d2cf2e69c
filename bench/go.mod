module ursa/bench

go 1.22

require ursa v0.0.0

replace ursa => ../
