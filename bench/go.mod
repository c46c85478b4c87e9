module cosmo/bench

go 1.22

require cosmo v0.0.0

replace cosmo => ../
