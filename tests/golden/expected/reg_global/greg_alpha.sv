// greg | topology global_registered | model f895ca0d97b5
// generated by regforge; do not edit

module greg_alpha (
    input  logic clk,
    input  logic [71:0] settings_in,
    output logic [17:0] cfg_coef0,
    output logic [17:0] cfg_coef1,
    output logic [17:0] cfg_coef2,
    output logic [17:0] cfg_coef3
);

    assign cfg_coef0 = settings_in[17:0];
    assign cfg_coef1 = settings_in[35:18];
    assign cfg_coef2 = settings_in[53:36];
    assign cfg_coef3 = settings_in[71:54];

endmodule
