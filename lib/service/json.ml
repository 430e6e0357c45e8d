(* The tree's JSON module lives in the leaf library [armb_json]; this
   alias keeps the [Armb_service.Json] name that the perfbench harness
   uses. *)
include Armb_json.Json
