module cyclops/bench

go 1.22

require cyclops v0.0.0

replace cyclops => ../
