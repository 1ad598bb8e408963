type pair = R10_lib.pair = { left : int; right : int }
