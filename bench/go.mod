module github.com/adc-sim/adc/bench

go 1.22

require github.com/adc-sim/adc v0.0.0

replace github.com/adc-sim/adc => ../
