// greg | topology global_registered | model f895ca0d97b5
// generated by regforge; do not edit

module greg_beta (
    input  logic clk,
    input  logic [8:0] settings_in,
    output logic [8:0] cfg_ctrl
);

    assign cfg_ctrl = settings_in[8:0];

endmodule
