let mbps ~bytes_count ~seconds =
  if seconds <= 0.0 then 0.0
  else float_of_int bytes_count *. 8.0 /. seconds /. 1e6
