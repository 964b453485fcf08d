module icbtc/benchmark

go 1.24

require icbtc v0.0.0

replace icbtc => ../
